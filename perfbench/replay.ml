(** Layer replays: a workload's own keys and values, and the sstables its
    store built, fed through each layer's public entry point in a loop.
    Each replay reports host nanoseconds per call (median over passes) and
    allocated words per call, under the metric names of the layer. *)

module Dyn = Pdb_kvs.Store_intf
module Ik = Pdb_kvs.Internal_key
module Iter = Pdb_kvs.Iter
module Env = Pdb_simio.Env
module Table = Pdb_sstable.Table

(** Calls per pass, and timed passes per replay (after one warm-up). *)
let calls = 4096

let passes = 9

(* [per_call ~n pass] runs [pass ()], which makes [n] calls, once to warm
   up and [passes] times measured: (median ns per call, words per call). *)
let per_call ~n pass =
  pass ();
  let samples =
    List.init passes (fun _ ->
        let w0 = Round.allocated_words () in
        let t0 = Monotonic_clock.now () in
        pass ();
        let t1 = Monotonic_clock.now () in
        let w1 = Round.allocated_words () in
        (Int64.to_float (Int64.sub t1 t0), w1 -. w0))
  in
  let n = float_of_int n in
  ( Stats.median (List.map (fun (ns, _) -> ns /. n) samples),
    Stats.median (List.map (fun (_, w) -> w /. n) samples) )

let take n a = Array.sub a 0 (min n (Array.length a))

(* The workload's writes (the timed phase's, else the preload) and the
   keys it reads (gets and scan starts, else the written keys). *)
let written (inputs : Gen.t) =
  let puts =
    Array.of_list
      (List.filter_map
         (function
           | Gen.Put (k, v) -> Some (k, v) | Gen.Get _ | Gen.Scan _ -> None)
         (Array.to_list inputs.Gen.ops))
  in
  take calls (if puts = [||] then inputs.Gen.preload else puts)

let looked_up (inputs : Gen.t) kvs =
  let reads =
    Array.of_list
      (List.filter_map
         (function
           | Gen.Get (k, _) | Gen.Scan (k, _, _) -> Some k | Gen.Put _ -> None)
         (Array.to_list inputs.Gen.ops))
  in
  take calls (if reads = [||] then Array.map fst kvs else reads)

(* The store's sstables, found from the file system alone: (file name,
   table number), in name order. *)
let sst_files env =
  List.filter_map
    (fun name ->
      if Filename.check_suffix name ".sst" then
        let base = Filename.chop_suffix (Filename.basename name) ".sst" in
        Some (name, int_of_string base)
      else None)
    (List.sort String.compare (Env.list env))

let sorted_internal kvs =
  let a =
    Array.mapi
      (fun i (k, v) -> (Ik.encode ~user_key:k ~seq:(i + 1) ~kind:Ik.Value, v))
      kvs
  in
  Array.sort (fun (a, _) (b, _) -> Ik.compare a b) a;
  a

(* Data blocks of [block_bytes] cut from the sorted entries, each with the
   user key of its last entry. *)
let blocks entries ~block_bytes =
  let b = Pdb_sstable.Block.Builder.create () in
  let out = ref [] and last = ref "" in
  let cut () =
    if not (Pdb_sstable.Block.Builder.is_empty b) then begin
      out := (Ik.user_key !last, Pdb_sstable.Block.Builder.finish b) :: !out;
      Pdb_sstable.Block.Builder.reset b
    end
  in
  Array.iter
    (fun (k, v) ->
      Pdb_sstable.Block.Builder.add b k v;
      last := k;
      if Pdb_sstable.Block.Builder.current_size_estimate b >= block_bytes then
        cut ())
    entries;
  cut ();
  Array.of_list (List.rev !out)

(* Index of the first block whose last key is >= [key] (the last block
   when none is). *)
let block_for blocks key =
  let lo = ref 0 and hi = ref (Array.length blocks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare (fst blocks.(mid)) key < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let memtable_replays kvs lookups =
  let add_ns, add_words =
    per_call ~n:(Array.length kvs) (fun () ->
        let m = Pdb_kvs.Memtable.create () in
        Array.iteri
          (fun i (k, v) ->
            Pdb_kvs.Memtable.add m ~seq:(i + 1) ~kind:Ik.Value ~user_key:k
              ~value:v)
          kvs)
  in
  let m = Pdb_kvs.Memtable.create () in
  Array.iteri
    (fun i (k, v) ->
      Pdb_kvs.Memtable.add m ~seq:(i + 1) ~kind:Ik.Value ~user_key:k ~value:v)
    kvs;
  let get_ns, _ =
    per_call ~n:(Array.length lookups) (fun () ->
        Array.iter (fun k -> ignore (Pdb_kvs.Memtable.get m k)) lookups)
  in
  [ ("memtable.add.ns", add_ns); ("memtable.add.words", add_words);
    ("memtable.get.ns", get_ns) ]

let wal_replay kvs =
  let payloads =
    Array.mapi
      (fun i (k, v) ->
        let b = Pdb_kvs.Write_batch.create () in
        Pdb_kvs.Write_batch.put b k v;
        Pdb_kvs.Write_batch.encode b ~base_seq:(i + 1))
      kvs
  in
  let ns, words =
    per_call ~n:(Array.length payloads) (fun () ->
        let w = Pdb_wal.Wal.Writer.create (Env.create ()) "replay.log" in
        Array.iter (Pdb_wal.Wal.Writer.add_record w) payloads)
  in
  [ ("wal.append.ns", ns); ("wal.append.words", words) ]

let block_replay (opts : Pdb_kvs.Options.t) kvs lookups =
  let blocks = blocks (sorted_internal kvs) ~block_bytes:opts.block_bytes in
  let probes =
    Array.map (fun k -> (snd blocks.(block_for blocks k), Ik.max_for_lookup k))
      lookups
  in
  let ns, words =
    per_call ~n:(Array.length probes) (fun () ->
        Array.iter
          (fun (raw, target) ->
            let it =
              Pdb_sstable.Block.iterator ~compare:Ik.compare
                (Pdb_sstable.Block.decode raw)
            in
            it.Iter.seek target)
          probes)
  in
  [ ("block.seek.ns", ns); ("block.seek.words", words) ]

let table_replay (opts : Pdb_kvs.Options.t) env lookups =
  let readers =
    List.map
      (fun (_, number) ->
        let m = Table.recover_meta env ~dir:"db" ~number in
        (m, Table.open_reader env ~dir:"db" m))
      (sst_files env)
  in
  let covering key =
    List.find_opt
      (fun ((m : Table.meta), _) ->
        String.compare (Ik.user_key m.Table.smallest) key <= 0
        && String.compare key (Ik.user_key m.Table.largest) <= 0)
      readers
  in
  let probes =
    Array.of_list
      (List.filter_map
         (fun k ->
           Option.map (fun (_, r) -> (r, Ik.max_for_lookup k)) (covering k))
         (Array.to_list lookups))
  in
  let cache =
    Pdb_sstable.Block_cache.create
      ~capacity:opts.Pdb_kvs.Options.block_cache_bytes
  in
  let ns, words =
    per_call ~n:(Array.length probes) (fun () ->
        Array.iter
          (fun (r, target) ->
            ignore
              (Table.get r ~cache ~hint:Pdb_simio.Device.Random_read target))
          probes)
  in
  [ ("table.get.ns", ns); ("table.get.words", words) ]

let bloom_replay (opts : Pdb_kvs.Options.t) kvs lookups =
  let f =
    Pdb_bloom.Bloom.create ~bits_per_key:opts.Pdb_kvs.Options.bloom_bits_per_key
      (Array.length kvs)
  in
  Array.iter (fun (k, _) -> Pdb_bloom.Bloom.add f k) kvs;
  let ns, _ =
    per_call ~n:(Array.length lookups) (fun () ->
        Array.iter (fun k -> ignore (Pdb_bloom.Bloom.mem f k)) lookups)
  in
  [ ("bloom.mem.ns", ns) ]

(* Four sorted runs, as in a guard holding four overlapping sstables. *)
let merging_replay kvs =
  let entries = sorted_internal kvs in
  let runs =
    List.init 4 (fun r ->
        Array.of_list
          (List.filteri (fun i _ -> i mod 4 = r) (Array.to_list entries)))
  in
  let ns, words =
    per_call ~n:(Array.length entries) (fun () ->
        let it =
          Pdb_kvs.Merging_iter.create ~compare:Ik.compare
            (List.map (Iter.of_sorted_array ~compare:Ik.compare) runs)
        in
        it.Iter.seek_to_first ();
        while it.Iter.valid () do
          it.Iter.next ()
        done)
  in
  [ ("merging_iter.next.ns", ns); ("merging_iter.next.words", words) ]

let guard_replay kvs =
  let opts = Pdb_kvs.Options.pebblesdb () in
  let ns, _ =
    per_call ~n:(Array.length kvs) (fun () ->
        Array.iter
          (fun (k, _) -> ignore (Pebblesdb.Guard_selector.guard_level opts k))
          kvs)
  in
  [ ("guard_selector.ns", ns) ]

(* 4 KB random reads of the store's sstables, at offsets hashed from the
   looked-up keys. *)
let env_replay env lookups =
  let files =
    Array.of_list
      (List.map
         (fun (name, _) -> (name, Env.file_size env name))
         (sst_files env))
  in
  let reads =
    Array.map
      (fun k ->
        let h = Hashtbl.hash k in
        let name, size = files.(h mod Array.length files) in
        let len = min 4096 size in
        (name, h mod (size - len + 1), len))
      lookups
  in
  let ns, words =
    per_call ~n:(Array.length reads) (fun () ->
        Array.iter
          (fun (name, pos, len) ->
            ignore
              (Env.read env name ~pos ~len ~hint:Pdb_simio.Device.Random_read))
          reads)
  in
  [ ("env.read.ns", ns); ("env.read.words", words) ]

(** [run store inputs] performs every replay.  The table and file reads
    go through [store]'s environment, so run it once the round's
    measurements are taken. *)
let run (store : Dyn.dyn) (inputs : Gen.t) =
  let opts = store.Dyn.d_options and env = store.Dyn.d_env in
  let kvs = written inputs in
  let lookups = looked_up inputs kvs in
  env_replay env lookups
  @ memtable_replays kvs lookups
  @ wal_replay kvs
  @ block_replay opts kvs lookups
  @ table_replay opts env lookups
  @ bloom_replay opts kvs lookups
  @ merging_replay kvs
  @ guard_replay kvs
