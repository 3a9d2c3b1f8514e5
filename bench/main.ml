(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (chapter 5, plus the chapter-2 motivation), then runs
   Bechamel micro-benchmarks on the core data-structure operations.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig1.1 ... # selected experiments
     dune exec bench/main.exe micro      # only the bechamel section
     dune exec bench/main.exe -- --json mt-smoke
                                         # also write results to BENCH.json *)

module Iter = Pdb_kvs.Iter
module Ik = Pdb_kvs.Internal_key
module Table = Pdb_sstable.Table
module Device = Pdb_simio.Device

(* Words allocated so far, read with an empty minor heap so the count is
   exact. *)
let allocated_words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [per_entry name ~entries ~reps f] runs [f] (which handles [entries]
   entries) once to warm up, then [reps] times, and prints host time and
   allocated words per entry ([unit] names what an entry is). *)
let per_entry ?(unit = "entry") name ~entries ~reps f =
  f ();
  let w0 = allocated_words () in
  let t0 = Monotonic_clock.now () in
  for _ = 1 to reps do
    f ()
  done;
  let t1 = Monotonic_clock.now () in
  let w1 = allocated_words () in
  let n = float_of_int (entries * reps) in
  Printf.printf "  %-28s %12.1f ns/%s %8.1f words/%s\n%!" name
    (Int64.to_float (Int64.sub t1 t0) /. n)
    unit ((w1 -. w0) /. n) unit

(* compaction.merge: 6 tables of 200 entries with 1 KB values, keys
   interleaved across tables, merged into one output table the way the
   engines' merge loops do it — value slices straight into the builder. *)
let compaction_merge () =
  let tables = 6 and per_table = 200 in
  let env = Pdb_simio.Env.create () in
  let value = String.make 1024 'v' in
  let metas =
    List.init tables (fun j ->
        let b =
          Table.Builder.create env ~dir:"bench" ~number:(j + 1)
            ~block_bytes:4096 ~bloom:true ~expected_keys:per_table
        in
        for i = 0 to per_table - 1 do
          Table.Builder.add b
            (Ik.encode
               ~user_key:(Printf.sprintf "key%08d" ((i * tables) + j))
               ~seq:((i * tables) + j + 1) ~kind:Ik.Value)
            value
        done;
        Option.get (Table.Builder.finish b))
  in
  let merge () =
    let scratch = Pdb_sstable.Block_cache.create ~capacity:(8 * 4096) in
    let children =
      List.map
        (fun m ->
          Table.iterator
            (Table.open_reader ~hint:Device.Sequential_read env ~dir:"bench" m)
            ~cache:scratch ~hint:Device.Sequential_read)
        metas
    in
    let merged = Pdb_kvs.Merging_iter.create ~compare:Ik.compare children in
    let out =
      Table.Builder.create env ~dir:"bench" ~number:100 ~block_bytes:4096
        ~bloom:true ~expected_keys:(tables * per_table)
    in
    let sl = Iter.slice () in
    merged.Iter.seek_to_first ();
    while merged.Iter.valid () do
      merged.Iter.value_slice sl;
      Table.Builder.add_slice out (merged.Iter.key ()) sl.Iter.src sl.Iter.pos
        sl.Iter.len;
      merged.Iter.next ()
    done;
    ignore (Table.Builder.finish out)
  in
  per_entry "compaction.merge 6x200x1KB" ~entries:(tables * per_table)
    ~reps:50 merge

(* merging_iter.next: a full pass over 8 interleaved in-memory children. *)
let merging_iter_next () =
  let k = 8 and per_child = 1000 in
  let children =
    Array.init k (fun j ->
        Array.init per_child (fun i ->
            (Printf.sprintf "key%08d" ((i * k) + j), "v")))
  in
  let pass () =
    let m =
      Pdb_kvs.Merging_iter.create ~compare:String.compare
        (Array.to_list (Array.map Iter.of_sorted_array children))
    in
    m.Iter.seek_to_first ();
    while m.Iter.valid () do
      m.Iter.next ()
    done
  in
  per_entry "merging_iter.next k=8" ~entries:(k * per_child) ~reps:200 pass

(* block_cache.evict_file: retire each of 250 files holding 8 resident
   blocks (2 000 in all) from a cache that holds them all; the cache is
   refilled between passes, outside the timing. *)
let block_cache_evict_file () =
  let files = 250 and blocks = 8 and reps = 20 in
  let env = Pdb_simio.Env.create () in
  let raw =
    let b = Pdb_sstable.Block.Builder.create () in
    for i = 0 to 15 do
      Pdb_sstable.Block.Builder.add b (Printf.sprintf "key%04d" i) "value"
    done;
    Pdb_sstable.Block.Builder.finish b
  in
  let size = String.length raw in
  let names =
    Array.init files (fun f ->
        let name = Table.file_name ~dir:"bench" f in
        let w = Pdb_simio.Env.create_file env name in
        for _ = 1 to blocks do
          Pdb_simio.Env.append w raw
        done;
        Pdb_simio.Env.close w;
        name)
  in
  let cache =
    Pdb_sstable.Block_cache.create ~capacity:(files * blocks * size)
  in
  let fill () =
    Array.iter
      (fun file ->
        for b = 0 to blocks - 1 do
          ignore
            (Pdb_sstable.Block_cache.find_or_load cache env ~file
               ~offset:(b * size) ~size ~hint:Device.Random_read)
        done)
      names
  in
  let ns = ref 0.0 and words = ref 0.0 in
  for _ = 1 to reps do
    fill ();
    let w0 = allocated_words () in
    let t0 = Monotonic_clock.now () in
    Array.iter
      (fun file -> Pdb_sstable.Block_cache.evict_file cache ~file)
      names;
    let t1 = Monotonic_clock.now () in
    ns := !ns +. Int64.to_float (Int64.sub t1 t0);
    words := !words +. (allocated_words () -. w0)
  done;
  let n = float_of_int (files * reps) in
  Printf.printf "  %-28s %12.1f ns/call %8.1f words/call\n%!"
    "block_cache.evict_file" (!ns /. n) (!words /. n)

(* table_cache.find: a hit on an open table. *)
let table_cache_find () =
  let env = Pdb_simio.Env.create () in
  let b =
    Table.Builder.create env ~dir:"bench" ~number:1 ~block_bytes:4096
      ~bloom:true ~expected_keys:100
  in
  for i = 0 to 99 do
    Table.Builder.add b
      (Ik.encode ~user_key:(Printf.sprintf "key%08d" i) ~seq:(i + 1)
         ~kind:Ik.Value)
      "value"
  done;
  let meta = Option.get (Table.Builder.finish b) in
  let tc = Pdb_sstable.Table_cache.create env ~dir:"bench" ~entries:16 in
  let calls = 1000 in
  per_entry ~unit:"call" "table_cache.find (hit)" ~entries:calls ~reps:1000
    (fun () ->
      for _ = 1 to calls do
        ignore (Pdb_sstable.Table_cache.find tc meta)
      done)

(* lru hit and insert with eviction: the primitive under the block, table
   and page caches, over 1 024 resident int keys spaced like block-cache
   keys.  A hit promotes one entry; each insert of a new key evicts the
   least recent one. *)
let lru_ops () =
  let n = 1024 and calls = 1000 in
  let lru = Pdb_util.Lru.create ~capacity:n in
  for k = 0 to n - 1 do
    Pdb_util.Lru.insert lru (k * 4096) k ~weight:1
  done;
  let rng = Pdb_util.Rng.create 7 in
  let probes = Array.init calls (fun _ -> Pdb_util.Rng.int rng n * 4096) in
  per_entry ~unit:"call" "lru.find_exn (hit)" ~entries:calls ~reps:1000
    (fun () ->
      Array.iter (fun k -> ignore (Pdb_util.Lru.find_exn lru k)) probes);
  let next = ref n in
  per_entry ~unit:"call" "lru.insert (evicting)" ~entries:calls ~reps:1000
    (fun () ->
      for _ = 1 to calls do
        Pdb_util.Lru.insert lru (!next * 4096) !next ~weight:1;
        incr next
      done)

(* env append 4KB x24 + close: the table-build pattern, 4 KB blocks
   appended from a reused buffer into one 96 KB file. *)
let env_append_close () =
  let env = Pdb_simio.Env.create () in
  let block = Buffer.create 4096 in
  Buffer.add_string block (String.make 4096 'b');
  let appends = 24 in
  per_entry ~unit:"append" "env append 4KB x24 + close" ~entries:appends
    ~reps:2000 (fun () ->
      let w = Pdb_simio.Env.create_file env "bench" in
      for _ = 1 to appends do
        Pdb_simio.Env.append_buffer w block
      done;
      Pdb_simio.Env.close w)

(* lsm level locate: the leveled get's search for the one file of a
   1 000-file level that may hold a key (hits, gaps and misses). *)
let lsm_level_locate () =
  let files = 1000 in
  let ik k =
    Ik.encode ~user_key:(Printf.sprintf "key%08d" k) ~seq:1 ~kind:Ik.Value
  in
  let level =
    Array.init files (fun f ->
        { Table.number = f; file_size = 0; entries = 8;
          smallest = ik (f * 10); largest = ik ((f * 10) + 7) })
  in
  let rng = Pdb_util.Rng.create 7 in
  let probes =
    Array.init 1000 (fun _ ->
        Printf.sprintf "key%08d" (Pdb_util.Rng.int rng (files * 11)))
  in
  per_entry ~unit:"call" "lsm level locate (1000 files)"
    ~entries:(Array.length probes) ~reps:1000 (fun () ->
      Array.iter
        (fun key -> ignore (Pdb_lsm.Level.locate level key))
        probes)

(* lsm compaction bookkeeping: the level work of one leveled compaction
   from a 1 000-file level into a 2 000-file target, without the merge —
   the trigger score (file count, bytes), the footprint (the level's
   user-key span), the round-robin pick, the overlapping target run and
   the install of the outputs in its place.  The cursor steps through the
   whole level; every file overlaps three target files, and the outputs
   replace those three. *)
let lsm_compaction_bookkeeping () =
  let module Level = Pdb_lsm.Level in
  let files = 1000 in
  let ik k seq =
    Ik.encode ~user_key:(Printf.sprintf "key%08d" k) ~seq ~kind:Ik.Value
  in
  let meta number lo hi =
    { Table.number; file_size = 32 * 1024; entries = 32;
      smallest = ik lo 2; largest = ik hi 1 }
  in
  let level =
    Level.of_array
      (Array.init files (fun f -> meta f (20 * f) ((20 * f) + 15)))
  in
  let target =
    Level.of_array
      (Array.init (2 * files) (fun g ->
           meta (files + g) ((10 * g) + 3) ((10 * g) + 12)))
  in
  let pointers =
    Array.init files (fun f ->
        if f = 0 then ""
        else Ik.user_key level.Level.files.(f - 1).Table.largest)
  in
  (* the outputs of cycle [f]: the consumed target run, renumbered *)
  let outputs =
    Array.init files (fun f ->
        List.filter_map
          (fun g ->
            if g < 0 || g >= 2 * files then None
            else
              let m = target.Level.files.(g) in
              Some { m with Table.number = (4 * files) + g })
          [ (2 * f) - 1; 2 * f; (2 * f) + 1 ])
  in
  per_entry ~unit:"cycle" "lsm compaction bookkeeping (1000-file level)"
    ~entries:files ~reps:50 (fun () ->
      for f = 0 to files - 1 do
        ignore (Sys.opaque_identity (Level.length level, level.Level.bytes));
        ignore (Sys.opaque_identity (Level.span ~sorted:true level));
        let inputs =
          Level.pick_round_robin level ~pointer:pointers.(f) ~pick_files:1
            ~next:target ~next_sorted:true
        in
        let smallest, largest = Level.user_range (Array.of_list inputs) in
        let run = Level.overlapping ~sorted:true target ~smallest ~largest in
        ignore
          (Sys.opaque_identity
             ( Level.replace ~sorted:true level ~removed:inputs ~added:[],
               Level.replace ~sorted:true target ~removed:run
                 ~added:outputs.(f) ))
      done)

let run_bechamel () =
  print_endline "\n#### micro — Bechamel micro-benchmarks (core operations)";
  let open Bechamel in
  let open Toolkit in
  let memtable_insert =
    Test.make ~name:"memtable.add x100"
      (Staged.stage (fun () ->
           let m = Pdb_kvs.Memtable.create () in
           for i = 0 to 99 do
             Pdb_kvs.Memtable.add m ~seq:i ~kind:Pdb_kvs.Internal_key.Value
               ~user_key:(Printf.sprintf "key%06d" (i * 7919 mod 100))
               ~value:"value"
           done))
  in
  let bloom = Pdb_bloom.Bloom.create 10_000 in
  let () =
    for i = 0 to 9_999 do
      Pdb_bloom.Bloom.add bloom (Printf.sprintf "key%06d" i)
    done
  in
  let bloom_check =
    Test.make ~name:"bloom.mem x2"
      (Staged.stage (fun () ->
           ignore (Pdb_bloom.Bloom.mem bloom "key004242");
           ignore (Pdb_bloom.Bloom.mem bloom "missing-key")))
  in
  let sl =
    let sl = Pdb_skiplist.Skiplist.create ~compare:String.compare "" "" in
    for i = 0 to 9_999 do
      Pdb_skiplist.Skiplist.insert sl (Printf.sprintf "key%06d" i) "v"
    done;
    sl
  in
  let skiplist_seek =
    Test.make ~name:"skiplist.seek"
      (Staged.stage (fun () ->
           ignore (Pdb_skiplist.Skiplist.seek sl "key004242")))
  in
  let level =
    let level = Pebblesdb.Guard.create_level () in
    Pebblesdb.Guard.commit_guards level
      (List.init 512 (fun i -> Printf.sprintf "g%06d" (i * 16)));
    level
  in
  let guard_search =
    Test.make ~name:"guard.index"
      (Staged.stage (fun () ->
           ignore (Pebblesdb.Guard.guard_index level "g004242")))
  in
  let murmur =
    Test.make ~name:"murmur3+trailing_ones"
      (Staged.stage (fun () ->
           ignore
             (Pdb_util.Murmur3.trailing_ones
                (Pdb_util.Murmur3.hash32 "some-user-key-0042"))))
  in
  (* the simulated IO path, layer by layer *)
  let kb = String.init 1024 (fun i -> Char.chr (i land 0xff)) in
  let crc =
    Test.make ~name:"crc32c 1KB"
      (Staged.stage (fun () -> ignore (Pdb_util.Crc32c.string kb)))
  in
  let env = Pdb_simio.Env.create () in
  let block4k = String.make 4096 'b' in
  let env_append_read =
    Test.make ~name:"env append+read 4KB"
      (Staged.stage (fun () ->
           let w = Pdb_simio.Env.create_file env "bench" in
           Pdb_simio.Env.append w block4k;
           ignore
             (Pdb_simio.Env.read env "bench" ~pos:0 ~len:4096
                ~hint:Pdb_simio.Device.Random_read)))
  in
  let ik i =
    Pdb_kvs.Internal_key.encode
      ~user_key:(Printf.sprintf "user%012d" i)
      ~seq:i ~kind:Pdb_kvs.Internal_key.Value
  in
  let ik_a = ik 4242 and ik_b = ik 4243 in
  let ikey_compare =
    Test.make ~name:"internal_key.compare"
      (Staged.stage (fun () ->
           ignore (Pdb_kvs.Internal_key.compare ik_a ik_b)))
  in
  let block =
    let b = Pdb_sstable.Block.Builder.create () in
    for i = 0 to 63 do
      Pdb_sstable.Block.Builder.add b (ik (i * 2)) (String.make 48 'v')
    done;
    Pdb_sstable.Block.Builder.finish b
  in
  let target = ik 71 in
  let block_seek =
    Test.make ~name:"block.seek (decode+iter)"
      (Staged.stage (fun () ->
           let it =
             Pdb_sstable.Block.iterator ~compare:Pdb_kvs.Internal_key.compare
               (Pdb_sstable.Block.decode block)
           in
           it.Pdb_kvs.Iter.seek target;
           ignore (it.Pdb_kvs.Iter.value ())))
  in
  let tests =
    [ memtable_insert; bloom_check; skiplist_seek; guard_search; murmur; crc;
      env_append_read; ikey_compare; block_seek ]
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    let instances = Instance.[ monotonic_clock ] in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false
           ~predictors:[| Measure.run |])
        Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-28s %12.1f ns/run\n%!" name est
        | Some _ | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
      results
  in
  List.iter benchmark tests;
  env_append_close ();
  compaction_merge ();
  merging_iter_next ();
  block_cache_evict_file ();
  table_cache_find ();
  lru_ops ();
  lsm_level_locate ();
  lsm_compaction_bookkeeping ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json, args = List.partition (fun a -> a = "--json") args in
  if json <> [] then Pdb_harness.Bench_util.Json.enable ();
  (match args with
  | [] ->
    Pdb_harness.Experiments.run_all ();
    run_bechamel ()
  | [ "micro" ] -> run_bechamel ()
  | ids ->
    List.iter
      (fun id ->
        if id = "micro" then run_bechamel ()
        else Pdb_harness.Experiments.run_by_id id)
      ids);
  if json <> [] then begin
    Pdb_harness.Bench_util.Json.write_file "BENCH.json";
    print_endline "\nwrote BENCH.json"
  end
