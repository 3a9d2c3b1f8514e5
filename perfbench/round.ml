(** One round: set up a store from a workload's inputs, run the timed
    phase through the multi-client driver, and read every counter the
    program keeps.

    Results are checked against the oracle answers carried by the inputs:
    a wrong get value, a wrong scan key or value sequence, or an exception
    counts one failed op and the round carries on.  After the phase a
    full scan compares the store with the oracle's final state; each key
    it finds missing or wrong counts one more failure. *)

module Dyn = Pdb_kvs.Store_intf
module Es = Pdb_kvs.Engine_stats
module Mc = Pdb_kvs.Multi_client
module Lat = Pdb_kvs.Latency
module Wb = Pdb_kvs.Write_batch
module Clock = Pdb_simio.Clock
module Env = Pdb_simio.Env
module Io = Pdb_simio.Io_stats
module Trace = Pdb_simio.Trace
module H = Pdb_util.Histogram
module Stores = Pdb_harness.Stores

type result = {
  setup_s : float;
      (** CPU time of input generation, store open and preload, scaled to
          the reference host (see {!Reference}) *)
  setup_wall_s : float;
  ops : int;
  failed : int;
  cpu_s : float;  (** process CPU time of the timed phase *)
  scaled_cpu_s : float;  (** [cpu_s] scaled to the reference host *)
  wall_s : float;
  alloc_words : float;  (** words allocated during the timed phase *)
  speed : float;
      (** the reference pass's nominal CPU time over its measured one, near
          this round: below 1 on a slowed host *)
  peak_heap_mb : float;  (** top of the major heap so far *)
  live_heap_mb : float;
      (** live words after a full major collection at phase end: the
          store, its inputs and the oracle *)
  sim : (string * float) list;
      (** simulated end-to-end metrics, latency tails included *)
  samples : (string * int) list;  (** sample count behind each latency *)
  layers : (string * float) list;  (** per-layer counters over the phase *)
  host_us : (string * H.t) list;
      (** host time per store call, by kind; filled in traced rounds *)
  trace : Trace.t option;
}

let mib = 1048576.0
let now = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Read with an empty minor heap: OCaml 5.1 counts the words of a
   partly filled minor heap inexactly, which made the same phase read
   differently from one round to the next. *)
let allocated_words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ---------- checked operations ---------- *)

let checked failed f = try if not (f ()) then incr failed with _ -> incr failed

let scan_matches (store : Dyn.dyn) start keys values =
  let it = store.Dyn.d_iterator () in
  it.Pdb_kvs.Iter.seek start;
  let n = Array.length keys in
  let rec go i =
    i = n
    || it.Pdb_kvs.Iter.valid ()
       && String.equal (it.Pdb_kvs.Iter.key ()) keys.(i)
       && String.equal (it.Pdb_kvs.Iter.value ()) values.(i)
       && (i = n - 1 || (it.Pdb_kvs.Iter.next (); true))
       && go (i + 1)
  in
  go 0

(* In a traced round every store call gets a span on the simulated clock
   and a host-time sample. *)
let spanned tr clock hist ~name f =
  let c0 = Clock.elapsed_ns (Clock.snapshot clock) in
  let h0 = Monotonic_clock.now () in
  let r = f () in
  let h1 = Monotonic_clock.now () in
  let c1 = Clock.elapsed_ns (Clock.snapshot clock) in
  H.add hist (Int64.to_float (Int64.sub h1 h0) /. 1e3);
  Trace.span tr ~name ~cat:"store" ~lane:"store" ~start_ns:c0
    ~dur_ns:(Float.max 0.0 (c1 -. c0))
    ();
  r

let host_kinds = [ "put"; "get"; "scan" ]

(* The store as the timed phase sees it: write exceptions are counted,
   and under a tracer each call is spanned. *)
let wrap_store failed traced (store : Dyn.dyn) =
  let write_group bs =
    try store.Dyn.d_write_group bs
    with _ -> failed := !failed + List.length bs
  in
  match traced with
  | None -> { store with Dyn.d_write_group = write_group }
  | Some (tr, host) ->
    let clock = Env.clock store.Dyn.d_env in
    let span kind f = spanned tr clock (List.assoc kind host) ~name:kind f in
    {
      store with
      Dyn.d_write_group = (fun bs -> span "put" (fun () -> write_group bs));
      d_get = (fun k -> span "get" (fun () -> store.Dyn.d_get k));
    }

let mc_ops failed traced (store : Dyn.dyn) ops =
  let scan k keys values () =
    match traced with
    | None -> scan_matches store k keys values
    | Some (tr, host) ->
      spanned tr (Env.clock store.Dyn.d_env) (List.assoc "scan" host)
        ~name:"scan" (fun () -> scan_matches store k keys values)
  in
  Array.to_list
    (Array.map
       (function
         | Gen.Put (k, v) ->
           let b = Wb.create () in
           Wb.put b k v;
           Mc.Write b
         | Gen.Get (k, expected) ->
           Mc.Read
             (fun () ->
               checked failed (fun () ->
                   Option.equal String.equal (store.Dyn.d_get k) expected))
         | Gen.Scan (k, keys, values) ->
           Mc.Seek (fun () -> checked failed (scan k keys values)))
       ops)

(* Keys missing or wrong after the phase, by a full scan. *)
let verify (store : Dyn.dyn) (final : string array) =
  let bad = ref 0 and j = ref 0 in
  let it = store.Dyn.d_iterator () in
  it.Pdb_kvs.Iter.seek_to_first ();
  while it.Pdb_kvs.Iter.valid () do
    let k = it.Pdb_kvs.Iter.key () in
    let rec skip_missing () =
      if !j < Array.length final && String.compare (Gen.present !j) k < 0
      then begin incr bad; incr j; skip_missing () end
    in
    skip_missing ();
    if !j < Array.length final && String.equal (Gen.present !j) k then begin
      if not (String.equal (it.Pdb_kvs.Iter.value ()) final.(!j)) then incr bad;
      incr j
    end
    else incr bad (* a key the workload never wrote *);
    it.Pdb_kvs.Iter.next ()
  done;
  !bad + (Array.length final - !j)

(* ---------- counters ---------- *)

let sum = Array.fold_left ( +. ) 0.0

(* Cumulative counters of a store, in reporting units: the ones reported
   as they move over the phase, and the parts of the ratios below. *)
let counters (store : Dyn.dyn) =
  let env = store.Dyn.d_env in
  let c = Clock.snapshot (Env.clock env) and io = Io.snapshot (Env.stats env) in
  let s = store.Dyn.d_stats () and gc = Gc.quick_stat () in
  let i = float_of_int and ms ns = ns /. 1e6 in
  ( [
      ("clock.fg_ms", ms c.Clock.foreground_ns);
      ("clock.bg_horizon_ms", ms c.Clock.bg_horizon_ns);
      ("clock.cpu_ms", ms c.Clock.cpu_ns);
      ("clock.stall_ms", ms c.Clock.stall_ns);
      ("env.bytes_written", i io.Io.bytes_written);
      ("env.bytes_read", i io.Io.bytes_read);
      ("env.read_ops", i io.Io.read_ops);
      ("env.syncs", i io.Io.syncs);
      ("write_group.write_groups", i s.Es.write_groups);
      ("backpressure.stall_slowdown_ms", ms s.Es.stall_slowdown_ns);
      ("backpressure.stall_stop_ms", ms s.Es.stall_stop_ns);
      ("backpressure.write_stalls", i s.Es.write_stalls);
      ("compaction.jobs", i s.Es.compaction_jobs);
      ("compaction.flushes", i s.Es.flushes);
      ("compaction.bytes_read", i s.Es.compaction_bytes_read);
      ("compaction.bytes_written", i s.Es.compaction_bytes_written);
      ("compaction.serialized_jobs", i s.Es.compaction_serialized_jobs);
      ("compaction.worker_busy_ms", ms (sum s.Es.worker_busy_ns));
      ("compaction.flush_busy_ms", ms s.Es.flush_busy_ns);
      ("index_summary.hits", i s.Es.summary_hits);
      ("index_summary.misses", i s.Es.summary_misses);
      ("bloom.checks", i s.Es.bloom_checks);
      ("merging_iter.seeks", i s.Es.seeks);
      ("merging_iter.nexts", i s.Es.nexts);
      ("core.guards_committed", i s.Es.guards_committed);
      ("core.seek_compactions", i s.Es.seek_compactions);
      ("gc.minor_collections", i gc.Gc.minor_collections);
      ("gc.major_collections", i gc.Gc.major_collections);
    ],
    [
      ("block_cache.hits", i s.Es.block_cache_hits);
      ("block_cache.misses", i s.Es.block_cache_misses);
      ("table_cache.hits", i s.Es.table_cache_hits);
      ("table_cache.misses", i s.Es.table_cache_misses);
      ("tables_examined", i s.Es.sstables_examined);
      ("gets", i s.Es.gets);
      ("bloom.checks", i s.Es.bloom_checks);
      ("bloom.negative", i s.Es.bloom_negative);
      ("seek_filter.checks", i s.Es.seek_bloom_checks);
      ("seek_filter.skips", i s.Es.seek_bloom_skips);
    ] )

(* Per-layer metrics over the phase: how the counters moved, the ratios
   built on them, and the watermarks and gauges read at phase end. *)
let layer_metrics ~before ~after (store : Dyn.dyn) (mc : Mc.result) =
  let delta b a = List.map2 (fun (name, x) (_, y) -> (name, y -. x)) b a in
  let parts = delta (snd before) (snd after) in
  let d name = List.assoc name parts in
  let ratio a b = Stats.ratio (d a) (d b) in
  let hit_rate cache =
    let hits = d (cache ^ ".hits") in
    Stats.ratio hits (hits +. d (cache ^ ".misses"))
  in
  let s = store.Dyn.d_stats () in
  delta (fst before) (fst after)
  @ [
      ("write_group.avg_group_batches", mc.Mc.avg_group_size);
      ("write_group.client_wait_ms", sum mc.Mc.client_wait_ns /. 1e6);
      ("compaction.queue_peak", float_of_int s.Es.compaction_queue_peak);
      ("compaction.backlog_peak_mb",
       float_of_int s.Es.compaction_backlog_peak_bytes /. mib);
      ("block_cache.hit_rate", hit_rate "block_cache");
      ("table_cache.hit_rate", hit_rate "table_cache");
      ("table.examined_per_get", ratio "tables_examined" "gets");
      ("bloom.useful_rate", ratio "bloom.negative" "bloom.checks");
      ("seek_filter.skip_rate", ratio "seek_filter.skips" "seek_filter.checks");
      ("core.guards_empty", float_of_int s.Es.guards_empty);
    ]

(* ---------- the round ---------- *)

let latency_metrics (lat : Lat.t) =
  let tails =
    [ ("put", Lat.Write, 99.9, "p999"); ("get", Lat.Read, 99.9, "p999");
      ("scan", Lat.Seek, 99.0, "p99") ]
  in
  List.concat_map
    (fun (kind, k, tail, tail_name) ->
      let h = Lat.hist lat k in
      if H.count h = 0 then []
      else
        [
          ( Printf.sprintf "sim_%s_p50_us" kind,
            H.percentile h 50.0 /. 1e3,
            H.count h );
          ( Printf.sprintf "sim_%s_%s_us" kind tail_name,
            H.percentile h tail /. 1e3,
            H.count h );
        ])
    tails

(** [run workload ~seed ~traced] performs one round.  With [traced], the
    environment carries a tracer for the timed phase and each store call
    is spanned.  [inspect] sees the store and its inputs once the round is
    done, before they are dropped. *)
let run ?(inspect = fun _ _ -> ()) workload ~seed ~traced =
  let ref_a = Reference.cpu_s () in
  let t0 = now () and s0 = cpu_s () in
  let inputs = Gen.make workload ~seed in
  let raw = Stores.open_engine inputs.Gen.engine in
  Array.iter (fun (k, v) -> raw.Dyn.d_put k v) inputs.Gen.preload;
  let failed = ref 0 in
  let traced =
    if traced then begin
      let tr = Trace.create ~capacity:(1 lsl 20) () in
      Env.set_tracer raw.Dyn.d_env tr;
      Some (tr, List.map (fun k -> (k, H.create ())) host_kinds)
    end
    else None
  in
  let store = wrap_store failed traced raw in
  let ops = mc_ops failed traced store inputs.Gen.ops in
  let n = List.length ops in
  let lat = Lat.create () in
  let setup_cpu = cpu_s () -. s0 and setup_wall_s = now () -. t0 in
  let ref_b = Reference.cpu_s () in
  let before = counters raw in
  let w0 = now () and c0 = cpu_s () and a0 = allocated_words () in
  let mc = Mc.run ~latency:lat store ~clients:inputs.Gen.clients ops in
  let a1 = allocated_words () and c1 = cpu_s () and w1 = now () in
  let after = counters raw in
  let ref_c = Reference.cpu_s () in
  let scaled ref_x ref_y = Reference.nominal_s /. ((ref_x +. ref_y) /. 2.0) in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. mib
  in
  let env = raw.Dyn.d_env in
  let user_bytes = (raw.Dyn.d_stats ()).Es.user_bytes_written in
  let live_bytes =
    Gen.n_keys * (String.length (Gen.present 0) + Gen.value_bytes)
  in
  let lats = latency_metrics lat in
  let sim =
    [
      ("sim_kops", float_of_int n /. (mc.Mc.elapsed_ns /. 1e9) /. 1e3);
      ("write_amp",
       float_of_int (Env.stats env).Io.bytes_written
       /. float_of_int user_bytes);
      ("space_amp",
       float_of_int (Env.total_file_bytes env) /. float_of_int live_bytes);
      ("sim_mem_mb", float_of_int (raw.Dyn.d_memory_bytes ()) /. mib);
    ]
    @ List.map (fun (name, v, _) -> (name, v)) lats
  in
  let layers = layer_metrics ~before ~after raw mc in
  Gc.full_major ();
  let live_heap_mb =
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. mib
  in
  (match traced with Some _ -> Env.clear_tracer env | None -> ());
  let failed = !failed + verify raw inputs.Gen.final in
  inspect raw inputs;
  {
    setup_s = setup_cpu *. scaled ref_a ref_b;
    setup_wall_s;
    ops = n;
    failed;
    cpu_s = c1 -. c0;
    scaled_cpu_s = (c1 -. c0) *. scaled ref_b ref_c;
    wall_s = w1 -. w0;
    alloc_words = a1 -. a0;
    speed = scaled ref_a ref_c;
    peak_heap_mb;
    live_heap_mb;
    sim;
    samples = List.map (fun (name, _, count) -> (name, count)) lats;
    layers;
    host_us = (match traced with Some (_, host) -> host | None -> []);
    trace = Option.map fst traced;
  }
