(* Tests for blocks, tables, caches and level iterators. *)

open Pdb_sstable
module Ik = Pdb_kvs.Internal_key
module Iter = Pdb_kvs.Iter

let check = Alcotest.check

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---------- Block ---------- *)

let build_block entries =
  let b = Block.Builder.create () in
  List.iter (fun (k, v) -> Block.Builder.add b k v) entries;
  Block.decode (Block.Builder.finish b)

let test_block_roundtrip () =
  let entries =
    List.init 50 (fun i -> (Printf.sprintf "key%04d" i, Printf.sprintf "v%d" i))
  in
  let blk = build_block entries in
  check
    Alcotest.(list (pair string string))
    "all entries" entries
    (Block.entries ~compare:String.compare blk)

let test_block_prefix_compression_effective () =
  (* long shared prefixes should compress well *)
  let entries =
    List.init 100 (fun i ->
        (Printf.sprintf "commonprefix/long/shared/%04d" i, "v"))
  in
  let b = Block.Builder.create () in
  List.iter (fun (k, v) -> Block.Builder.add b k v) entries;
  let raw = Block.Builder.finish b in
  let uncompressed =
    List.fold_left (fun acc (k, v) -> acc + String.length k + String.length v)
      0 entries
  in
  Alcotest.(check bool) "smaller than raw concat" true
    (String.length raw < uncompressed)

let test_block_seek () =
  let entries = List.init 60 (fun i -> (Printf.sprintf "k%04d" (i * 2), "v")) in
  let blk = build_block entries in
  let it = Block.iterator ~compare:String.compare blk in
  it.Iter.seek "k0007";
  check Alcotest.string "seek between keys" "k0008" (it.Iter.key ());
  it.Iter.seek "k0000";
  check Alcotest.string "seek first" "k0000" (it.Iter.key ());
  it.Iter.seek "k0118";
  check Alcotest.string "seek last" "k0118" (it.Iter.key ());
  it.Iter.seek "k9999";
  Alcotest.(check bool) "seek past end invalid" false (it.Iter.valid ())

let test_block_seek_across_restarts () =
  (* more entries than one restart interval, targeted seeks everywhere *)
  let entries = List.init 100 (fun i -> (Printf.sprintf "k%04d" i, string_of_int i)) in
  let blk = build_block entries in
  let it = Block.iterator ~compare:String.compare blk in
  List.iter
    (fun i ->
      it.Iter.seek (Printf.sprintf "k%04d" i);
      check Alcotest.string "exact seek" (Printf.sprintf "k%04d" i)
        (it.Iter.key ()))
    [ 0; 1; 15; 16; 17; 31; 32; 33; 50; 98; 99 ]

let test_block_single_entry () =
  let blk = build_block [ ("only", "v") ] in
  let it = Block.iterator ~compare:String.compare blk in
  it.Iter.seek_to_first ();
  check Alcotest.string "single" "only" (it.Iter.key ());
  it.Iter.next ();
  Alcotest.(check bool) "exhausted" false (it.Iter.valid ())

let prop_block_roundtrip =
  qtest "block roundtrip (random sorted keys)"
    QCheck.(list (pair (string_of_size (QCheck.Gen.return 8)) small_int))
    (fun pairs ->
      let module M = Map.Make (String) in
      let m =
        List.fold_left (fun m (k, v) -> M.add k (string_of_int v) m) M.empty
          pairs
      in
      let entries = M.bindings m in
      match entries with
      | [] -> true
      | _ ->
        let blk = build_block entries in
        Block.entries ~compare:String.compare blk = entries)

(* Whether every entry's value slice spans exactly the bytes [value ()]
   returns, walking from the first entry; the slice of an exhausted
   iterator must raise. *)
let slices_agree (it : Iter.t) =
  let sl = Iter.slice () in
  it.Iter.seek_to_first ();
  let ok = ref true in
  while it.Iter.valid () do
    it.Iter.value_slice sl;
    if not (String.equal (String.sub sl.Iter.src sl.Iter.pos sl.Iter.len) (it.Iter.value ())) then
      ok := false;
    it.Iter.next ()
  done;
  !ok
  && (match it.Iter.value_slice sl with
      | () -> false
      | exception Invalid_argument _ -> true)

let prop_block_value_slices =
  qtest "block value slices = values"
    QCheck.(list (pair (string_of_size Gen.(1 -- 12)) (string_of_size Gen.(0 -- 40))))
    (fun pairs ->
      let module M = Map.Make (String) in
      let entries =
        M.bindings (List.fold_left (fun m (k, v) -> M.add k v m) M.empty pairs)
      in
      slices_agree
        (Block.iterator ~compare:String.compare (build_block entries)))

(* ---------- Table ---------- *)

let ikey k seq = Ik.encode ~user_key:k ~seq ~kind:Ik.Value

let build_table ?(bloom = true) env ~dir ~number entries =
  let b =
    Table.Builder.create env ~dir ~number ~block_bytes:512 ~bloom
      ~expected_keys:(List.length entries)
  in
  List.iter (fun (ik, v) -> Table.Builder.add b ik v) entries;
  match Table.Builder.finish b with
  | Some meta -> meta
  | None -> Alcotest.fail "table should not be empty"

let sorted_entries n =
  List.init n (fun i -> (ikey (Printf.sprintf "key%05d" i) (i + 1),
                         Printf.sprintf "value-%05d" i))

let test_table_build_and_get () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table env ~dir:"db" ~number:1 (sorted_entries 200) in
  check Alcotest.int "entries" 200 meta.Table.entries;
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  (* point lookups *)
  List.iter
    (fun i ->
      let target = Ik.max_for_lookup (Printf.sprintf "key%05d" i) in
      match Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read target with
      | Some (ik, v) ->
        check Alcotest.string "found key" (Printf.sprintf "key%05d" i)
          (Ik.user_key ik);
        check Alcotest.string "found value" (Printf.sprintf "value-%05d" i) v
      | None -> Alcotest.fail "expected hit")
    [ 0; 1; 57; 100; 199 ]

let test_table_get_absent_lands_on_successor () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table env ~dir:"db" ~number:1 (sorted_entries 50) in
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let target = Ik.max_for_lookup "key00010zzz" in
  (match Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read target with
   | Some (ik, _) ->
     check Alcotest.string "successor" "key00011" (Ik.user_key ik)
   | None -> Alcotest.fail "expected successor");
  let past = Ik.max_for_lookup "zzzz" in
  Alcotest.(check bool) "past end" true
    (Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read past = None)

let test_table_iterator_full_scan () =
  let env = Pdb_simio.Env.create () in
  let entries = sorted_entries 300 in
  let meta = build_table env ~dir:"db" ~number:2 entries in
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let it = Table.iterator reader ~cache ~hint:Pdb_simio.Device.Sequential_read in
  check
    Alcotest.(list (pair string string))
    "scan equals input" entries (Iter.to_list it)

let test_table_iterator_seek () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table env ~dir:"db" ~number:3 (sorted_entries 300) in
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let it = Table.iterator reader ~cache ~hint:Pdb_simio.Device.Random_read in
  it.Iter.seek (Ik.max_for_lookup "key00150");
  check Alcotest.string "seek mid" "key00150" (Ik.user_key (it.Iter.key ()));
  it.Iter.next ();
  check Alcotest.string "next" "key00151" (Ik.user_key (it.Iter.key ()))

let test_table_bloom_filters_absent () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table env ~dir:"db" ~number:4 (sorted_entries 100) in
  let reader = Table.open_reader env ~dir:"db" meta in
  Alcotest.(check bool) "present key passes" true
    (Table.may_contain reader "key00050");
  let misses = ref 0 in
  for i = 0 to 99 do
    if not (Table.may_contain reader (Printf.sprintf "other%05d" i)) then
      incr misses
  done;
  Alcotest.(check bool) "bloom rejects most absents" true (!misses > 90)

let test_table_no_bloom () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table ~bloom:false env ~dir:"db" ~number:5 (sorted_entries 10) in
  let reader = Table.open_reader env ~dir:"db" meta in
  Alcotest.(check bool) "no filter" false (Table.has_filter reader);
  Alcotest.(check bool) "may_contain defaults true" true
    (Table.may_contain reader "whatever")

let test_table_empty_builder () =
  let env = Pdb_simio.Env.create () in
  let b =
    Table.Builder.create env ~dir:"db" ~number:6 ~block_bytes:512 ~bloom:true
      ~expected_keys:0
  in
  Alcotest.(check bool) "empty finish yields None" true
    (Table.Builder.finish b = None);
  Alcotest.(check bool) "file deleted" false
    (Pdb_simio.Env.exists env (Table.file_name ~dir:"db" 6))

let test_block_cache_hit_avoids_io () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table env ~dir:"db" ~number:7 (sorted_entries 100) in
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let target = Ik.max_for_lookup "key00050" in
  ignore (Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read target);
  let reads_before = (Pdb_simio.Env.stats env).Pdb_simio.Io_stats.read_ops in
  ignore (Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read target);
  let reads_after = (Pdb_simio.Env.stats env).Pdb_simio.Io_stats.read_ops in
  check Alcotest.int "second get reads nothing" reads_before reads_after

let test_table_cache_eviction_reopens () =
  let env = Pdb_simio.Env.create () in
  let m1 = build_table env ~dir:"db" ~number:10 (sorted_entries 20) in
  let m2 = build_table env ~dir:"db" ~number:11 (sorted_entries 20) in
  let tc = Table_cache.create env ~dir:"db" ~entries:1 in
  ignore (Table_cache.find tc m1);
  ignore (Table_cache.find tc m2);
  (* m1 evicted; finding it again must re-read footer+index (device IO) *)
  let reads_before = (Pdb_simio.Env.stats env).Pdb_simio.Io_stats.read_ops in
  ignore (Table_cache.find tc m1);
  let reads_after = (Pdb_simio.Env.stats env).Pdb_simio.Io_stats.read_ops in
  Alcotest.(check bool) "reopen costs reads" true (reads_after > reads_before);
  check Alcotest.int "cache holds 1" 1 (Table_cache.open_tables tc)

(* Regression: in a byte-bounded cache, a summary-guided reopen defers
   its filter block; when a probe later materialises it, the reader's
   resident footprint changes but its insert-time LRU weight used to stay
   stale — the accounted byte budget silently diverged from what the
   cache actually held. *)
let test_table_cache_reweigh_on_filter_load () =
  let env = Pdb_simio.Env.create () in
  let m1 = build_table env ~dir:"db" ~number:12 (sorted_entries 200) in
  let m2 = build_table env ~dir:"db" ~number:13 (sorted_entries 200) in
  (* size the byte budget to hold exactly one of these tables *)
  let one = Table.resident_bytes (Table.open_reader env ~dir:"db" m1) in
  let tc =
    Table_cache.create ~bytes:(one + (one / 2)) ~summary_stride:4 env
      ~dir:"db" ~entries:1000
  in
  let check_accounting msg =
    let actual =
      Pdb_util.Lru.fold tc.Table_cache.cache
        (fun acc _ r -> acc + Table.resident_bytes r)
        0
    in
    check Alcotest.int msg actual (Table_cache.accounted_bytes tc)
  in
  ignore (Table_cache.find tc m1);
  check_accounting "accounted = actual after eager open";
  ignore (Table_cache.find tc m2);
  (* m1 evicted; reopening it is summary-guided, filter deferred *)
  let r1 = Table_cache.find tc m1 in
  Alcotest.(check bool) "reopened filter is lazy" false
    (Table.filter_resident r1);
  check_accounting "accounted = actual while filter lazy";
  Alcotest.(check bool) "probe loads the filter" true
    (Table.may_contain r1 "key00050");
  Alcotest.(check bool) "filter now resident" true (Table.filter_resident r1);
  check_accounting "accounted = actual after filter materialises"

(* A reader remembers the file its block cache interned it to; a load
   through another cache, or after [evict_file] dropped the file, must
   intern again, so that cache's per-file bookkeeping sees the block. *)
let test_reader_reinterns () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table env ~dir:"db" ~number:21 (sorted_entries 200) in
  let name = Table.file_name ~dir:"db" 21 in
  let reader = Table.open_reader env ~dir:"db" meta in
  let a = Block_cache.create ~capacity:(1 lsl 20)
  and b = Block_cache.create ~capacity:(1 lsl 20) in
  let get cache =
    ignore
      (Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read
         (ikey "key00000" 1))
  in
  get a;
  get b;
  get a;
  check Alcotest.(list string) "cache a resident" [ name ]
    (Block_cache.resident_files a);
  check Alcotest.(list string) "cache b resident" [ name ]
    (Block_cache.resident_files b);
  Block_cache.evict_file a ~file:name;
  check Alcotest.(list string) "a dropped the file" []
    (Block_cache.resident_files a);
  check Alcotest.(list string) "b keeps it" [ name ]
    (Block_cache.resident_files b);
  get a;
  check Alcotest.(list string) "reloaded under a fresh intern" [ name ]
    (Block_cache.resident_files a);
  check Alcotest.int "the reload missed" 2 (Block_cache.misses a);
  Block_cache.evict_file a ~file:name;
  check Alcotest.int "second evict frees every block" 0 (Block_cache.used a)

(* ---------- Level_iter ---------- *)

let test_level_iter_concat_and_seek () =
  let env = Pdb_simio.Env.create () in
  (* two disjoint tables: keys 0..99 and 100..199 *)
  let e1 = List.init 100 (fun i -> (ikey (Printf.sprintf "k%05d" i) 1, "a")) in
  let e2 =
    List.init 100 (fun i -> (ikey (Printf.sprintf "k%05d" (100 + i)) 1, "b"))
  in
  let m1 = build_table env ~dir:"db" ~number:20 e1 in
  let m2 = build_table env ~dir:"db" ~number:21 e2 in
  let tc = Table_cache.create env ~dir:"db" ~entries:10 in
  let bc = Block_cache.create ~capacity:(1 lsl 20) in
  let examined = ref 0 in
  let it =
    Level_iter.create ~cache:tc ~block_cache:bc
      ~hint:Pdb_simio.Device.Random_read
      ~on_table:(fun () -> incr examined)
      [| m1; m2 |]
  in
  (* seek into second table touches only one table *)
  examined := 0;
  it.Iter.seek (Ik.max_for_lookup "k00150");
  check Alcotest.string "seek second file" "k00150"
    (Ik.user_key (it.Iter.key ()));
  check Alcotest.int "one table examined" 1 !examined;
  (* crossing the file boundary transparently *)
  it.Iter.seek (Ik.max_for_lookup "k00099");
  check Alcotest.string "at boundary" "k00099" (Ik.user_key (it.Iter.key ()));
  it.Iter.next ();
  check Alcotest.string "crossed" "k00100" (Ik.user_key (it.Iter.key ()));
  (* full scan sees everything *)
  it.Iter.seek_to_first ();
  let n = ref 0 in
  while it.Iter.valid () do
    incr n;
    it.Iter.next ()
  done;
  check Alcotest.int "scan count" 200 !n

let test_level_iter_empty () =
  let env = Pdb_simio.Env.create () in
  let tc = Table_cache.create env ~dir:"db" ~entries:10 in
  let bc = Block_cache.create ~capacity:(1 lsl 20) in
  let it =
    Level_iter.create ~cache:tc ~block_cache:bc
      ~hint:Pdb_simio.Device.Random_read
      ~on_table:(fun () -> ())
      [||]
  in
  it.Iter.seek_to_first ();
  Alcotest.(check bool) "empty invalid" false (it.Iter.valid ());
  it.Iter.seek "anything";
  Alcotest.(check bool) "seek invalid" false (it.Iter.valid ())

let test_table_value_slices () =
  let env = Pdb_simio.Env.create () in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let table number entries =
    let meta = build_table env ~dir:"db" ~number entries in
    Table.iterator (Table.open_reader env ~dir:"db" meta) ~cache
      ~hint:Pdb_simio.Device.Sequential_read
  in
  let a = sorted_entries 300 in
  (* the second table overwrites every third key of the first *)
  let b =
    List.filteri (fun i _ -> i mod 3 = 0) a
    |> List.map (fun (ik, v) ->
           (ikey (Ik.user_key ik) (Ik.seq ik + 1000), v ^ "-new"))
  in
  Alcotest.(check bool) "table" true (slices_agree (table 40 a));
  Alcotest.(check bool) "merge of two tables" true
    (slices_agree
       (Pdb_kvs.Merging_iter.create ~compare:Ik.compare
          [ table 41 b; table 42 a ]))

let test_table_add_slice_same_bytes () =
  (* values handed over as slices of larger strings produce the same file,
     filter included, as values added whole *)
  let env = Pdb_simio.Env.create () in
  let entries = sorted_entries 200 in
  let by_value = build_table env ~dir:"db" ~number:43 entries in
  let b =
    Table.Builder.create env ~dir:"db" ~number:44 ~block_bytes:512
      ~bloom:true ~expected_keys:(List.length entries)
  in
  List.iteri
    (fun i (ik, v) ->
      let pad = String.make (i mod 7) '#' in
      Table.Builder.add_slice b ik (pad ^ v ^ pad) (String.length pad)
        (String.length v))
    entries;
  let by_slice = Option.get (Table.Builder.finish b) in
  let bytes (m : Table.meta) =
    Pdb_simio.Env.read_all env
      (Table.file_name ~dir:"db" m.Table.number)
      ~hint:Pdb_simio.Device.Sequential_read
  in
  check Alcotest.string "file bytes" (bytes by_value) (bytes by_slice)

let prop_table_roundtrip =
  qtest "table roundtrip (random sorted unique keys)" ~count:30
    QCheck.(list (string_of_size (QCheck.Gen.return 6)))
    (fun keys ->
      let keys = List.sort_uniq String.compare keys in
      match keys with
      | [] -> true
      | _ ->
        let env = Pdb_simio.Env.create () in
        let entries = List.mapi (fun i k -> (ikey k (i + 1), k)) keys in
        let meta = build_table env ~dir:"db" ~number:30 entries in
        let reader = Table.open_reader env ~dir:"db" meta in
        let cache = Block_cache.create ~capacity:(1 lsl 20) in
        let it =
          Table.iterator reader ~cache ~hint:Pdb_simio.Device.Sequential_read
        in
        Iter.to_list it = entries)

(* ---------- block cache against a string-keyed reference ---------- *)

(* The reference: a weighted LRU over ["file:offset"] keys, most recent
   first, with the cache's admission and eviction rules. *)
type model = { capacity : int; mutable entries : (string * int) list }

let model_used m = List.fold_left (fun acc (_, w) -> acc + w) 0 m.entries

let model_load m key ~weight =
  match List.assoc_opt key m.entries with
  | Some w ->
    m.entries <- (key, w) :: List.remove_assoc key m.entries;
    `Hit
  | None ->
    if weight <= m.capacity then begin
      m.entries <- (key, weight) :: m.entries;
      while model_used m > m.capacity do
        let keep = List.length m.entries - 1 in
        m.entries <- List.filteri (fun i _ -> i < keep) m.entries
      done
    end;
    `Miss

let model_evict_file m file =
  let prefix = file ^ ":" in
  m.entries <-
    List.filter (fun (k, _) -> not (String.starts_with ~prefix k)) m.entries

(* Four files of six blocks each, block sizes varying with the entry
   count, so capacity evictions free different amounts. *)
let cache_files env =
  List.init 4 (fun f ->
      let name = Printf.sprintf "db/%06d.sst" (f + 1) in
      let w = Pdb_simio.Env.create_file env name in
      let blocks =
        List.init 6 (fun b ->
            let raw =
              Block.Builder.finish
                (let bb = Block.Builder.create () in
                 for i = 0 to (f + b) mod 5 do
                   Block.Builder.add bb (Printf.sprintf "k%03d" i) "value"
                 done;
                 bb)
            in
            Pdb_simio.Env.append w raw;
            String.length raw)
      in
      Pdb_simio.Env.close w;
      let handles, _ =
        List.fold_left
          (fun (acc, off) size -> ((off, size) :: acc, off + size))
          ([], 0) blocks
      in
      (name, Array.of_list (List.rev handles)))
  |> Array.of_list

let prop_block_cache_model =
  qtest "block cache = string-keyed reference LRU" ~count:200
    QCheck.(
      pair (int_range 40 400)
        (list_of_size Gen.(1 -- 120)
           (triple (int_bound 9) (int_bound 3) (int_bound 5))))
    (fun (capacity, ops) ->
      let env = Pdb_simio.Env.create () in
      let files = cache_files env in
      let cache = Block_cache.create ~capacity in
      let m = { capacity; entries = [] } in
      List.for_all
        (fun (op, f, b) ->
          let name, blocks = files.(f) in
          let agrees =
            if op = 0 then begin
              Block_cache.evict_file cache ~file:name;
              model_evict_file m name;
              true
            end
            else begin
              let offset, size = blocks.(b) in
              let _, got =
                Block_cache.find_or_load cache env ~file:name ~offset ~size
                  ~hint:Pdb_simio.Device.Random_read
              in
              got
              = model_load m (Printf.sprintf "%s:%d" name offset) ~weight:size
            end
          in
          let resident =
            Array.for_all
              (fun (name, blocks) ->
                Array.for_all
                  (fun (offset, _) ->
                    Block_cache.mem cache ~file:name ~offset
                    = List.mem_assoc (Printf.sprintf "%s:%d" name offset)
                        m.entries)
                  blocks)
              files
          in
          let model_files =
            Array.to_list files
            |> List.filter (fun (name, _) ->
                   List.exists
                     (fun (k, _) -> String.starts_with ~prefix:(name ^ ":") k)
                     m.entries)
            |> List.map fst
          in
          agrees && resident
          && Block_cache.used cache = model_used m
          && Block_cache.resident_files cache = model_files)
        ops)

(* ---------- decoded index against the raw index block ---------- *)

(* What a seek to [target] finds, read the way the format defines it: the
   footer's index handle, a [Block.iterator] seek over the raw index, the
   data block it names, a seek there. *)
let reference_seek env (meta : Table.meta) target =
  let name = Table.file_name ~dir:"db" meta.Table.number in
  let read pos len =
    Pdb_simio.Env.read env name ~pos ~len ~hint:Pdb_simio.Device.Random_read
  in
  let footer =
    read (meta.Table.file_size - Table.footer_size) Table.footer_size
  in
  let index =
    Block.decode
      (read (Pdb_util.Varint.get_fixed32 footer 8)
         (Pdb_util.Varint.get_fixed32 footer 12))
  in
  let it = Block.iterator ~compare:Ik.compare index in
  it.Iter.seek target;
  if not (it.Iter.valid ()) then None
  else begin
    let h = it.Iter.value () in
    let offset, pos = Pdb_util.Varint.get_uvarint h 0 in
    let size, _ = Pdb_util.Varint.get_uvarint h pos in
    let data =
      Block.iterator ~compare:Ik.compare (Block.decode (read offset size))
    in
    data.Iter.seek target;
    if data.Iter.valid () then Some (data.Iter.key (), data.Iter.value ())
    else None
  end

let prop_table_seeks_match_raw_index =
  let user =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (1 -- 5))
  in
  qtest "Table.get/iterator seek = raw-index seek" ~count:60
    QCheck.(
      pair
        (make Gen.(list_size (1 -- 200) (pair user (1 -- 4))))
        (make Gen.(list_size (1 -- 30) (pair user (0 -- 5)))))
    (fun (versions, targets) ->
      let entries =
        List.sort_uniq Ik.compare (List.map (fun (u, s) -> ikey u s) versions)
        |> List.map (fun k ->
               (k, Ik.user_key k ^ "=" ^ string_of_int (Ik.seq k)))
      in
      let env = Pdb_simio.Env.create () in
      let meta = build_table env ~dir:"db" ~number:40 entries in
      let reader = Table.open_reader env ~dir:"db" meta in
      let cache = Block_cache.create ~capacity:(1 lsl 20) in
      let it =
        Table.iterator reader ~cache ~hint:Pdb_simio.Device.Random_read
      in
      List.for_all
        (fun (u, s) ->
          let target = ikey u s in
          let expected = reference_seek env meta target in
          it.Iter.seek target;
          let from_iter =
            if it.Iter.valid () then Some (it.Iter.key (), it.Iter.value ())
            else None
          in
          Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read target
          = expected
          && from_iter = expected)
        (targets @ [ ("zzzzzz", 0); ("", 0) ]))

let () =
  Alcotest.run "sstable"
    [
      ( "block",
        [
          Alcotest.test_case "roundtrip" `Quick test_block_roundtrip;
          Alcotest.test_case "prefix compression" `Quick
            test_block_prefix_compression_effective;
          Alcotest.test_case "seek" `Quick test_block_seek;
          Alcotest.test_case "seek across restarts" `Quick
            test_block_seek_across_restarts;
          Alcotest.test_case "single entry" `Quick test_block_single_entry;
          prop_block_roundtrip;
          prop_block_value_slices;
        ] );
      ( "table",
        [
          Alcotest.test_case "build and get" `Quick test_table_build_and_get;
          Alcotest.test_case "absent -> successor" `Quick
            test_table_get_absent_lands_on_successor;
          Alcotest.test_case "full scan" `Quick test_table_iterator_full_scan;
          Alcotest.test_case "iterator seek" `Quick test_table_iterator_seek;
          Alcotest.test_case "bloom rejects absent" `Quick
            test_table_bloom_filters_absent;
          Alcotest.test_case "no bloom" `Quick test_table_no_bloom;
          Alcotest.test_case "empty builder" `Quick test_table_empty_builder;
          prop_table_roundtrip;
          Alcotest.test_case "value slices" `Quick test_table_value_slices;
          Alcotest.test_case "add_slice writes the same bytes" `Quick
            test_table_add_slice_same_bytes;
          prop_table_seeks_match_raw_index;
        ] );
      ( "caches",
        [
          Alcotest.test_case "block cache hit" `Quick
            test_block_cache_hit_avoids_io;
          Alcotest.test_case "table cache eviction" `Quick
            test_table_cache_eviction_reopens;
          Alcotest.test_case "byte cache re-weighs on filter load" `Quick
            test_table_cache_reweigh_on_filter_load;
          prop_block_cache_model;
          Alcotest.test_case "reader re-interns per cache and after evict"
            `Quick test_reader_reinterns;
        ] );
      ( "level-iter",
        [
          Alcotest.test_case "concat and seek" `Quick
            test_level_iter_concat_and_seek;
          Alcotest.test_case "empty" `Quick test_level_iter_empty;
        ] );
    ]
