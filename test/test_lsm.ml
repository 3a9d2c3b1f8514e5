(* Tests for the baseline LSM engine. *)

module L = Pdb_lsm.Lsm_store
module O = Pdb_kvs.Options
module Env = Pdb_simio.Env
module Iter = Pdb_kvs.Iter

let check = Alcotest.check

let qtest ?(count = 20) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Small store parameters so tests exercise flush + multi-level compaction
   with little data. *)
let tiny_opts () =
  {
    (O.hyperleveldb ()) with
    O.memtable_bytes = 2 * 1024;
    level_bytes_base = 8 * 1024;
    sstable_target_bytes = 4 * 1024;
    block_bytes = 512;
  }

let open_tiny ?(opts = tiny_opts ()) env = L.open_store opts ~env ~dir:"db"

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%06d-%s" i (String.make 20 'x')

let test_put_get () =
  let env = Env.create () in
  let db = open_tiny env in
  L.put db "a" "1";
  L.put db "b" "2";
  check Alcotest.(option string) "get a" (Some "1") (L.get db "a");
  check Alcotest.(option string) "get b" (Some "2") (L.get db "b");
  check Alcotest.(option string) "missing" None (L.get db "zz")

let test_overwrite () =
  let env = Env.create () in
  let db = open_tiny env in
  L.put db "k" "old";
  L.put db "k" "new";
  check Alcotest.(option string) "latest" (Some "new") (L.get db "k")

let test_delete () =
  let env = Env.create () in
  let db = open_tiny env in
  L.put db "k" "v";
  L.delete db "k";
  check Alcotest.(option string) "deleted" None (L.get db "k")

let test_get_after_flush () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 199 do
    L.put db (key i) (value i)
  done;
  (* 200 * ~60B >> 2KB memtable: several flushes happened *)
  Alcotest.(check bool) "flushed" true
    ((L.stats db).Pdb_kvs.Engine_stats.flushes > 0);
  for i = 0 to 199 do
    check Alcotest.(option string) ("get " ^ key i) (Some (value i))
      (L.get db (key i))
  done;
  L.check_invariants db

let test_compaction_triggers_and_preserves_data () =
  let env = Env.create () in
  let db = open_tiny env in
  let n = 2000 in
  for i = 0 to n - 1 do
    L.put db (key (i * 7919 mod n)) (value i)
  done;
  Alcotest.(check bool) "compacted" true
    ((L.stats db).Pdb_kvs.Engine_stats.compactions > 0);
  L.check_invariants db;
  (* every key readable with its latest value *)
  let latest = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    Hashtbl.replace latest (key (i * 7919 mod n)) (value i)
  done;
  Hashtbl.iter
    (fun k v -> check Alcotest.(option string) ("get " ^ k) (Some v) (L.get db k))
    latest

let test_overwrites_reclaimed_by_compaction () =
  let env = Env.create () in
  let db = open_tiny env in
  for round = 0 to 9 do
    for i = 0 to 99 do
      L.put db (key i) (value (round * 1000 + i))
    done
  done;
  L.compact_all db;
  (* after full compaction only one version of each key persists *)
  let metas = L.sstable_metas db in
  let entries =
    List.fold_left
      (fun acc (m : Pdb_sstable.Table.meta) -> acc + m.Pdb_sstable.Table.entries)
      0 metas
  in
  check Alcotest.int "one entry per live key" 100 entries

let test_tombstones_dropped_at_bottom () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 99 do
    L.put db (key i) (value i)
  done;
  for i = 0 to 99 do
    L.delete db (key i)
  done;
  L.compact_all db;
  let metas = L.sstable_metas db in
  let entries =
    List.fold_left
      (fun acc (m : Pdb_sstable.Table.meta) -> acc + m.Pdb_sstable.Table.entries)
      0 metas
  in
  check Alcotest.int "all entries reclaimed" 0 entries

let test_compact_all_pushes_down () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 499 do
    L.put db (key i) (value i)
  done;
  L.compact_all db;
  let counts = L.level_file_counts db in
  (* everything must sit in exactly one (the deepest populated) level *)
  let populated =
    Array.to_list counts |> List.filteri (fun i _ -> i >= 0)
    |> List.filter (fun c -> c > 0)
  in
  check Alcotest.int "one populated level" 1 (List.length populated);
  check Alcotest.int "L0 empty" 0 counts.(0);
  for i = 0 to 499 do
    check Alcotest.(option string) "data intact" (Some (value i))
      (L.get db (key i))
  done

let test_iterator_full_order () =
  let env = Env.create () in
  let db = open_tiny env in
  let n = 300 in
  let perm = Array.init n Fun.id in
  Pdb_util.Rng.shuffle (Pdb_util.Rng.create 3) perm;
  Array.iter (fun i -> L.put db (key i) (value i)) perm;
  let it = L.iterator db in
  let got = Iter.to_list it in
  check Alcotest.int "count" n (List.length got);
  let expected = List.init n (fun i -> (key i, value i)) in
  check Alcotest.(list (pair string string)) "sorted scan" expected got

let test_iterator_seek_and_range () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 299 do
    L.put db (key (2 * i)) (value i)
  done;
  let it = L.iterator db in
  it.Iter.seek (key 101);
  check Alcotest.string "seek to even successor" (key 102) (it.Iter.key ());
  (* range query: 10 keys from key 100 *)
  it.Iter.seek (key 100);
  let collected = ref [] in
  for _ = 1 to 10 do
    collected := it.Iter.key () :: !collected;
    it.Iter.next ()
  done;
  check Alcotest.int "range size" 10 (List.length !collected);
  check Alcotest.string "range start" (key 100)
    (List.hd (List.rev !collected))

let test_iterator_hides_deletions () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 99 do
    L.put db (key i) (value i)
  done;
  for i = 0 to 99 do
    if i mod 2 = 0 then L.delete db (key i)
  done;
  let got = Iter.to_list (L.iterator db) in
  check Alcotest.int "half survive" 50 (List.length got);
  List.iter
    (fun (k, _) ->
      let i = int_of_string (String.sub k 3 6) in
      Alcotest.(check bool) "odd keys only" true (i mod 2 = 1))
    got

let test_write_batch_atomic_visibility () =
  let env = Env.create () in
  let db = open_tiny env in
  let b = Pdb_kvs.Write_batch.create () in
  Pdb_kvs.Write_batch.put b "x" "1";
  Pdb_kvs.Write_batch.put b "y" "2";
  Pdb_kvs.Write_batch.delete b "x";
  L.write db b;
  check Alcotest.(option string) "x deleted by later op in batch" None
    (L.get db "x");
  check Alcotest.(option string) "y" (Some "2") (L.get db "y")

let test_reopen_recovers_sstables_and_wal () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 299 do
    L.put db (key i) (value i)
  done;
  (* some data flushed to sstables, the tail still in WAL/memtable *)
  L.close db;
  let db2 = open_tiny env in
  for i = 0 to 299 do
    check Alcotest.(option string) ("recovered " ^ key i) (Some (value i))
      (L.get db2 (key i))
  done;
  L.check_invariants db2

let test_crash_preserves_synced_data () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 199 do
    L.put db (key i) (value i)
  done;
  L.flush db (* everything flushed to (synced) sstables *);
  for i = 200 to 249 do
    L.put db (key i) (value i)
  done;
  Env.crash env (* unsynced WAL tail is lost *);
  let db2 = open_tiny env in
  for i = 0 to 199 do
    check Alcotest.(option string) ("survives " ^ key i) (Some (value i))
      (L.get db2 (key i))
  done;
  L.check_invariants db2

let test_wal_sync_makes_writes_durable () =
  let env = Env.create () in
  let opts = { (tiny_opts ()) with O.wal_sync_writes = true } in
  let db = open_tiny ~opts env in
  for i = 0 to 49 do
    L.put db (key i) (value i)
  done;
  Env.crash env;
  let db2 = open_tiny ~opts env in
  for i = 0 to 49 do
    check Alcotest.(option string) ("durable " ^ key i) (Some (value i))
      (L.get db2 (key i))
  done

let test_sequential_fill_uses_trivial_moves () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 1999 do
    L.put db (key i) (value i)
  done;
  L.flush db;
  (* sequential fill produces disjoint tables; trivial moves mean
     compaction writes far less than the random-order equivalent *)
  let seq_written =
    (L.stats db).Pdb_kvs.Engine_stats.compaction_bytes_written
  in
  let env_r = Env.create () in
  let db_r = open_tiny env_r in
  let perm = Array.init 2000 Fun.id in
  Pdb_util.Rng.shuffle (Pdb_util.Rng.create 5) perm;
  Array.iter (fun i -> L.put db_r (key i) (value i)) perm;
  L.flush db_r;
  let rnd_written =
    (L.stats db_r).Pdb_kvs.Engine_stats.compaction_bytes_written
  in
  Alcotest.(check bool)
    (Printf.sprintf "seq %d < rnd %d" seq_written rnd_written)
    true
    (seq_written < rnd_written)

let test_write_amp_accounting () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 999 do
    L.put db (key i) (value (i * 31))
  done;
  L.flush db;
  let user = (L.stats db).Pdb_kvs.Engine_stats.user_bytes_written in
  let device = (Env.stats env).Pdb_simio.Io_stats.bytes_written in
  Alcotest.(check bool) "write amp > 1" true (device > user);
  Alcotest.(check bool) "write amp sane (< 100)" true (device < 100 * user)

let test_memory_and_describe () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 199 do
    L.put db (key i) (value i)
  done;
  Alcotest.(check bool) "memory positive" true (L.memory_bytes db > 0);
  let d = L.describe db in
  Alcotest.(check bool) "describe mentions levels" true
    (String.length d > 0)

let prop_model_random_ops =
  (* The store must agree with a Hashtbl model under random interleaved
     puts/deletes/gets across flush and compaction. *)
  qtest "store = model under random ops" ~count:15
    QCheck.(list (pair (int_bound 200) (option (int_bound 1000))))
    (fun ops ->
      let env = Env.create () in
      let db = open_tiny env in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          let ks = key k in
          match v with
          | Some v ->
            L.put db ks (value v);
            Hashtbl.replace model ks (value v)
          | None ->
            L.delete db ks;
            Hashtbl.remove model ks)
        ops;
      L.check_invariants db;
      Hashtbl.fold
        (fun k v acc -> acc && L.get db k = Some v)
        model true
      && List.for_all
           (fun (k, _) ->
             let ks = key k in
             L.get db ks = Hashtbl.find_opt model ks)
           ops)

let prop_iterator_matches_model =
  qtest "iterator = sorted model" ~count:10
    QCheck.(list (pair (int_bound 300) (int_bound 1000)))
    (fun ops ->
      let env = Env.create () in
      let db = open_tiny env in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          L.put db (key k) (value v);
          Hashtbl.replace model (key k) (value v))
        ops;
      let expected =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort compare
      in
      Iter.to_list (L.iterator db) = expected)

let prop_recovery_equals_pre_close =
  qtest "reopen preserves every write" ~count:10
    QCheck.(list (pair (int_bound 150) (int_bound 1000)))
    (fun ops ->
      let env = Env.create () in
      let db = open_tiny env in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          L.put db (key k) (value v);
          Hashtbl.replace model (key k) (value v))
        ops;
      L.close db;
      let db2 = open_tiny env in
      Hashtbl.fold (fun k v acc -> acc && L.get db2 k = Some v) model true)

(* ---------- leveled locate ---------- *)

module Ik = Pdb_kvs.Internal_key
module Table = Pdb_sstable.Table
module Level = Pdb_lsm.Level

(* A sorted, disjoint level: the distinct internal keys of [versions]
   ((user key, seq) pairs), in order, cut into files of [sizes] entries.
   Several versions of one user key may straddle a cut, so adjacent files
   share a boundary user key. *)
let level_of versions sizes =
  let ikeys =
    List.sort_uniq Ik.compare
      (List.map (fun (u, s) -> Ik.encode ~user_key:u ~seq:s ~kind:Ik.Value)
         versions)
  in
  let file number keys =
    { Table.number; file_size = (7 * List.length keys) + number;
      entries = List.length keys;
      smallest = List.hd keys; largest = List.nth keys (List.length keys - 1) }
  in
  let rec cut n keys sizes acc =
    match keys with
    | [] -> List.rev acc
    | _ ->
      let size, sizes =
        match sizes with s :: rest -> (1 + s, rest) | [] -> (1, [])
      in
      let chunk = List.filteri (fun i _ -> i < size) keys in
      let rest = List.filteri (fun i _ -> i >= size) keys in
      cut (n + 1) rest sizes (file n chunk :: acc)
  in
  cut 1 ikeys sizes []

(* the search the binary locate replaced: the first file whose user-key
   range holds [key] *)
let reference_locate files key =
  List.find_opt
    (fun (m : Table.meta) ->
      String.compare (Ik.user_key m.Table.smallest) key <= 0
      && String.compare key (Ik.user_key m.Table.largest) <= 0)
    files

let prop_locate_matches_linear =
  let user =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 4))
  in
  qtest "binary locate = first overlapping file" ~count:300
    QCheck.(
      triple
        (make Gen.(list_size (0 -- 40) (pair user (0 -- 5))))
        (list_of_size Gen.(0 -- 20) (int_bound 3))
        (make Gen.(list_size (1 -- 20) user)))
    (fun (versions, sizes, probes) ->
      let files = level_of versions sizes in
      let arr = Array.of_list files in
      List.for_all
        (fun key ->
          let expected = reference_locate files key in
          let i = Level.locate arr key in
          match expected with
          | None -> i = -1
          | Some m -> i >= 0 && arr.(i) == m)
        (probes @ List.map fst versions))

let test_locate_shared_boundary () =
  let ik u s = Ik.encode ~user_key:u ~seq:s ~kind:Ik.Value in
  let meta number smallest largest =
    { Table.number; file_size = 0; entries = 1; smallest; largest }
  in
  (* "k" has versions in all three files *)
  let files =
    [| meta 1 (ik "a" 1) (ik "k" 9); meta 2 (ik "k" 5) (ik "k" 3);
       meta 3 (ik "k" 2) (ik "m" 1) |]
  in
  check Alcotest.int "shared key -> first holder" 0 (Level.locate files "k");
  check Alcotest.int "inside first" 0 (Level.locate files "b");
  check Alcotest.int "inside last" 2 (Level.locate files "l");
  check Alcotest.int "past the end" (-1) (Level.locate files "z");
  check Alcotest.int "before the start" (-1) (Level.locate files "");
  check Alcotest.int "empty level" (-1) (Level.locate [||] "k")

(* Installing added files into a resident level gives the order a full
   re-sort would: for level 0 (newest first) and for a leveled and a
   tiered level 1.  File numbers are distinct; smallest keys may tie, so
   the added files may not fit one gap of a sorted level. *)
let prop_install_merges_like_sort =
  let meta (number, u) =
    { Table.number; file_size = number; entries = 1;
      smallest = Ik.encode ~user_key:u ~seq:1 ~kind:Ik.Value;
      largest = Ik.encode ~user_key:u ~seq:1 ~kind:Ik.Value }
  in
  let user =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 3))
  in
  qtest "Level.replace = sort (added @ resident)" ~count:300
    QCheck.(
      triple
        (make Gen.(list_size (0 -- 30) user))
        (make Gen.(0 -- 6))
        (make Gen.(oneofl [ (0, O.Leveled); (1, O.Leveled); (1, O.Tiered) ])))
    (fun (users, added_count, (level, policy_kind)) ->
      let sorted = level > 0 && policy_kind = O.Leveled in
      let order = Level.order ~sorted in
      let files = List.mapi (fun i u -> meta (i + 1, u)) users in
      let added = List.filteri (fun i _ -> i < added_count) files
      and rest = List.filteri (fun i _ -> i >= added_count) files in
      let resident = Level.of_array (Array.of_list (List.sort order rest)) in
      let installed = Level.replace ~sorted resident ~removed:[] ~added in
      let numbers = List.map (fun (m : Table.meta) -> m.Table.number) in
      numbers (Array.to_list installed.Level.files)
      = numbers
          (List.stable_sort order (added @ Array.to_list resident.Level.files))
      && installed.Level.bytes = Level.bytes_of_list files)

(* ---------- level arrays against the list code they replaced ---------- *)

(* The list-based level operations the sorted arrays replaced, kept as the
   reference: every array operation must give the same files, in the same
   order, and the same byte totals. *)
module Ref = struct
  let order ~sorted =
    if sorted then fun (a : Table.meta) (b : Table.meta) ->
      Ik.compare a.Table.smallest b.Table.smallest
    else fun (a : Table.meta) (b : Table.meta) ->
      Int.compare b.Table.number a.Table.number

  let overlapping files ~smallest ~largest =
    List.filter
      (fun (m : Table.meta) ->
        not
          (String.compare (Ik.user_key m.Table.largest) smallest < 0
           || String.compare (Ik.user_key m.Table.smallest) largest > 0))
      files

  (* the union range; an empty smallest user key is a bound like any
     other (the fold this replaced let the next file's key override it,
     so a pick holding the empty key missed overlapping target files) *)
  let user_range = function
    | [] -> ("", "")
    | (m : Table.meta) :: _ as inputs ->
      List.fold_left
        (fun (lo, hi) (m : Table.meta) ->
          let s = Ik.user_key m.Table.smallest
          and l = Ik.user_key m.Table.largest in
          ( (if String.compare s lo < 0 then s else lo),
            if String.compare l hi > 0 then l else hi ))
        (Ik.user_key m.Table.smallest, Ik.user_key m.Table.largest)
        inputs

  let pick files ~pointer ~pick_files ~next =
    let after =
      List.filter
        (fun (m : Table.meta) ->
          String.compare (Ik.user_key m.Table.largest) pointer > 0)
        files
    in
    let pool = if after = [] then files else after in
    match pool with
    | first :: _
      when overlapping next
             ~smallest:(Ik.user_key first.Table.smallest)
             ~largest:(Ik.user_key first.Table.largest)
           = [] ->
      [ first ]
    | _ ->
      let rec take n = function
        | [] -> []
        | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
      in
      take pick_files pool

  let replace ~sorted files ~removed ~added =
    let order = order ~sorted in
    let gone = List.map (fun (m : Table.meta) -> m.Table.number) removed in
    List.merge order (List.sort order added)
      (List.filter (fun (m : Table.meta) -> not (List.mem m.Table.number gone))
         files)

  let bytes = List.fold_left (fun a (m : Table.meta) -> a + m.Table.file_size) 0
end

let numbers files = List.map (fun (m : Table.meta) -> m.Table.number) files
let level_list (lv : Level.t) = Array.to_list lv.Level.files

(* [lv] holds exactly [reference], in order, with a current byte total and
   in its layout's order (the per-level check of [check_invariants]). *)
let same_level ~sorted (lv : Level.t) reference =
  Level.check ~sorted ~what:"test level" lv;
  numbers (level_list lv) = numbers reference
  && lv.Level.bytes = Ref.bytes reference

let version_gen =
  QCheck.Gen.(
    pair (string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'd' ]) (0 -- 3)) (0 -- 5))

(* Outputs of a merge of [inputs]: their boundary keys, in order, cut into
   files of [1 + out_size] keys numbered from [!next_number]. *)
let outputs_of ~next_number ~out_size inputs =
  let keys =
    List.sort_uniq Ik.compare
      (List.concat_map
         (fun (m : Table.meta) -> [ m.Table.smallest; m.Table.largest ])
         inputs)
  in
  let rec cut = function
    | [] -> []
    | keys ->
      let chunk = List.filteri (fun i _ -> i <= out_size) keys in
      let rest = List.filteri (fun i _ -> i > out_size) keys in
      incr next_number;
      let meta =
        {
          Table.number = !next_number;
          file_size = (10 * List.length chunk) + 1;
          entries = List.length chunk;
          smallest = List.hd chunk;
          largest = List.nth chunk (List.length chunk - 1);
        }
      in
      meta :: cut rest
  in
  cut keys

(* Round-robin compactions between two leveled levels, on the arrays and
   on the reference lists side by side: each step picks (wrapping the
   cursor, or a single-file trivial move), finds the overlapping target
   run, and installs outputs cut from the inputs' boundary keys in its
   place.  The two levels share a key universe, so boundary user keys are
   shared within and across levels; either level may start empty. *)
let prop_leveled_steps =
  let pointer_gen =
    QCheck.Gen.(
      opt (string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'd'; 'z' ]) (0 -- 3)))
  in
  qtest "leveled pick/overlap/install = list reference" ~count:500
    QCheck.(
      make
        Gen.(
          tup5
            (list_size (0 -- 40) (pair version_gen bool))
            (list_size (0 -- 20) (0 -- 3))
            (1 -- 3)
            (list_size (1 -- 8) pointer_gen)
            (0 -- 2)))
    (fun (versions, sizes, pick_files, pointers, out_size) ->
      (* each internal key lives in one file of one level *)
      let versions =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) versions
      in
      let keys upper =
        List.filter_map (fun (v, b) -> if b = upper then Some v else None)
          versions
      in
      let up_list = ref (level_of (keys true) sizes)
      and low_list =
        ref
          (List.map
             (fun (m : Table.meta) ->
               { m with Table.number = m.Table.number + 1000 })
             (level_of (keys false) (List.rev sizes)))
      in
      let up = ref (Level.of_array (Array.of_list !up_list))
      and low = ref (Level.of_array (Array.of_list !low_list)) in
      let next_number = ref 5000 and pointer = ref "" in
      let agree what ok =
        if not ok then QCheck.Test.fail_reportf "%s differs" what
      in
      List.iter
        (fun p ->
          Option.iter (fun p -> pointer := p) p;
          let picked =
            Level.pick_round_robin !up ~pointer:!pointer ~pick_files
              ~next:!low ~next_sorted:true
          and ref_picked =
            Ref.pick !up_list ~pointer:!pointer ~pick_files ~next:!low_list
          in
          agree "pick" (numbers picked = numbers ref_picked);
          if picked <> [] then begin
            let smallest, largest = Level.user_range (Array.of_list picked) in
            agree "user range"
              ((smallest, largest) = Ref.user_range ref_picked);
            let run = Level.overlapping ~sorted:true !low ~smallest ~largest
            and ref_run = Ref.overlapping !low_list ~smallest ~largest in
            agree "overlap" (numbers run = numbers ref_run);
            let lo, hi = Level.overlap_range !low ~smallest ~largest in
            agree "overlap bytes"
              (Level.bytes_in !low ~lo ~hi = Ref.bytes ref_run);
            let outputs =
              match (picked, run) with
              | [ single ], [] -> [ single ]
              | _ -> outputs_of ~next_number ~out_size (picked @ run)
            in
            up := Level.replace ~sorted:true !up ~removed:picked ~added:[];
            up_list :=
              Ref.replace ~sorted:true !up_list ~removed:ref_picked ~added:[];
            low := Level.replace ~sorted:true !low ~removed:run ~added:outputs;
            low_list :=
              Ref.replace ~sorted:true !low_list ~removed:ref_run
                ~added:outputs;
            agree "source level" (same_level ~sorted:true !up !up_list);
            agree "target level" (same_level ~sorted:true !low !low_list);
            agree "source span"
              (Level.span ~sorted:true !up = Ref.user_range !up_list);
            agree "target span"
              (Level.span ~sorted:true !low = Ref.user_range !low_list);
            pointer := largest
          end)
        pointers;
      true)

(* Level 0 and tiered levels: newest-first files with arbitrary, possibly
   overlapping ranges.  Overlap, span and install (removing any subset,
   adding files numbered above, below or between the residents) match the
   reference; a flush puts its table in front. *)
let prop_newest_first_levels =
  let user =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 3))
  in
  qtest "newest-first overlap/span/install = list reference" ~count:500
    QCheck.(
      make
        Gen.(
          tup4
            (list_size (0 -- 12) (triple user user bool))
            (list_size (0 -- 4) (pair user user))
            (pair user user) (0 -- 99)))
    (fun (files, added, (q1, q2), flush_seq) ->
      let ordered a b = if String.compare a b <= 0 then (a, b) else (b, a) in
      let meta number (a, b) =
        let a, b = ordered a b in
        {
          Table.number;
          file_size = (3 * number) + 1;
          entries = 2;
          smallest = Ik.encode ~user_key:a ~seq:number ~kind:Ik.Value;
          largest = Ik.encode ~user_key:b ~seq:number ~kind:Ik.Value;
        }
      in
      (* even numbers resident, odd ones added: they interleave *)
      let n = List.length files in
      let resident =
        List.mapi (fun i (a, b, _) -> meta (2 * (n - i)) (a, b)) files
      in
      let removed =
        List.filteri (fun i _ -> let _, _, gone = List.nth files i in gone)
          resident
      in
      let added = List.mapi (fun i ab -> meta ((2 * i) + 1) ab) added in
      let lv = Level.of_array (Array.of_list resident) in
      let smallest, largest = ordered q1 q2 in
      let installed = Level.replace ~sorted:false lv ~removed ~added in
      let reference = Ref.replace ~sorted:false resident ~removed ~added in
      let flushed = meta (1000 + flush_seq) (q1, q2) in
      same_level ~sorted:false lv resident
      && numbers (Level.overlapping ~sorted:false lv ~smallest ~largest)
         = numbers (Ref.overlapping resident ~smallest ~largest)
      && Level.span ~sorted:false lv = Ref.user_range resident
      && same_level ~sorted:false installed reference
      && same_level ~sorted:false
           (Level.cons flushed installed)
           (flushed :: reference))

(* An empty user key is a key like any other: a compaction whose inputs
   hold it must consume every target file it overlaps, or the leveled
   levels stop being disjoint and a get of the key can read a stale
   version. *)
let test_empty_user_key () =
  let env = Env.create () in
  let db = open_tiny env in
  let rng = Random.State.make [| 3 |] in
  let latest = ref "" in
  for i = 0 to 3000 do
    let k = if i mod 7 = 0 then "" else key (Random.State.int rng 400) in
    let v = value i in
    L.put db k v;
    if k = "" then latest := v;
    L.check_invariants db;
    check Alcotest.(option string) "empty key" (Some !latest) (L.get db "")
  done

(* Store-level: under every policy of this engine, random writes keep
   [check_invariants] (layout order and byte totals, per level) after
   every write, and a reopen recovers the same files in the same order. *)
let prop_policies_keep_levels =
  qtest "policies: invariants per write, levels survive reopen" ~count:12
    QCheck.(
      pair
        (make Gen.(oneofl [ O.Leveled; O.Tiered; O.Lazy_leveled ]))
        (list (pair (int_bound 300) (option (int_bound 1000)))))
    (fun (policy, ops) ->
      let opts =
        { (tiny_opts ()) with O.compaction_policy = policy; max_levels = 4 }
      in
      let env = Env.create () in
      let db = open_tiny ~opts env in
      List.iter
        (fun (k, v) ->
          (match v with
           | Some v -> L.put db (key k) (value v)
           | None -> L.delete db (key k));
          L.check_invariants db)
        ops;
      let layout db =
        List.init 4 (fun level -> numbers (L.level_tables db level))
      in
      let sizes = L.level_sizes db in
      let before = layout db in
      L.close db;
      let db2 = open_tiny ~opts env in
      L.check_invariants db2;
      layout db2 = before && L.level_sizes db2 = sizes)

let () =
  Alcotest.run "lsm"
    [
      ( "basic",
        [
          Alcotest.test_case "put/get" `Quick test_put_get;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "batch atomicity" `Quick
            test_write_batch_atomic_visibility;
        ] );
      ( "flush-compaction",
        [
          Alcotest.test_case "get after flush" `Quick test_get_after_flush;
          Alcotest.test_case "compaction preserves data" `Quick
            test_compaction_triggers_and_preserves_data;
          Alcotest.test_case "overwrites reclaimed" `Quick
            test_overwrites_reclaimed_by_compaction;
          Alcotest.test_case "tombstones dropped" `Quick
            test_tombstones_dropped_at_bottom;
          Alcotest.test_case "compact_all pushes down" `Quick
            test_compact_all_pushes_down;
          Alcotest.test_case "sequential trivial moves" `Quick
            test_sequential_fill_uses_trivial_moves;
          Alcotest.test_case "write amp accounting" `Quick
            test_write_amp_accounting;
        ] );
      ( "iterator",
        [
          Alcotest.test_case "full order" `Quick test_iterator_full_order;
          Alcotest.test_case "seek and range" `Quick
            test_iterator_seek_and_range;
          Alcotest.test_case "hides deletions" `Quick
            test_iterator_hides_deletions;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "reopen" `Quick
            test_reopen_recovers_sstables_and_wal;
          Alcotest.test_case "crash preserves synced" `Quick
            test_crash_preserves_synced_data;
          Alcotest.test_case "wal sync durable" `Quick
            test_wal_sync_makes_writes_durable;
        ] );
      ( "misc",
        [
          Alcotest.test_case "memory/describe" `Quick test_memory_and_describe;
        ] );
      ( "properties",
        [
          prop_model_random_ops;
          prop_iterator_matches_model;
          prop_recovery_equals_pre_close;
        ] );
      ( "locate",
        [
          Alcotest.test_case "shared boundary user key" `Quick
            test_locate_shared_boundary;
          prop_locate_matches_linear;
        ] );
      ("install", [ prop_install_merges_like_sort ]);
      ( "level-array",
        [
          prop_leveled_steps;
          prop_newest_first_levels;
          prop_policies_keep_levels;
          Alcotest.test_case "empty user key" `Quick test_empty_user_key;
        ] );
    ]
