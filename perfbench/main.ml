(* The repository benchmark.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
              [--holdout-seed <m>]

   A run builds 3 to 8 stores (by workload), each from its own sub-seed
   of [--seed], and runs one round on each: set-up (inputs, store, preload),
   then the timed phase.  It then repeats rounds, cycling through the
   sub-seeds, until [--seconds] have passed, and at least once.  A repeat
   must reproduce its sub-seed's simulated metrics and allocation count
   exactly.  Simulated metrics are means over the sub-seeds; host times
   are medians over each sub-seed's rounds.

   [--trace 1] adds a traced repeat of the first sub-seed, whose
   simulated metrics must equal the untraced ones bit for bit, and the
   layer replays, and reports the per-layer metrics instead of the
   end-to-end ones.  Every metric is printed by name first; the last
   stdout line is the result as one JSON object. *)

module Trace = Pdb_simio.Trace
module H = Pdb_util.Histogram

(* The metrics of the JSON result, with their units: the end-to-end ones
   apply to every workload; the per-layer ones are the traced run's. *)
let end_to_end_units =
  [
    ("sim_kops", "kops/s"); ("write_amp", "ratio"); ("space_amp", "ratio");
    ("sim_mem_mb", "MB"); ("host_kops", "kops/s");
    ("host_alloc_words_per_op", "words"); ("host_live_heap_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer_units =
  [
    ("clock.fg_ms", "ms"); ("clock.bg_horizon_ms", "ms");
    ("clock.cpu_ms", "ms"); ("clock.stall_ms", "ms");
    ("env.bytes_written", "B"); ("env.bytes_read", "B");
    ("env.read_ops", "count"); ("env.syncs", "count");
    ("env.read.ns", "ns"); ("env.read.words", "words");
    ("memtable.add.ns", "ns"); ("memtable.add.words", "words");
    ("memtable.get.ns", "ns");
    ("wal.append.ns", "ns"); ("wal.append.words", "words");
    ("write_group.write_groups", "count");
    ("write_group.avg_group_batches", "count");
    ("write_group.client_wait_ms", "ms");
    ("backpressure.stall_slowdown_ms", "ms");
    ("backpressure.stall_stop_ms", "ms");
    ("backpressure.write_stalls", "count");
    ("compaction.jobs", "count"); ("compaction.flushes", "count");
    ("compaction.bytes_read", "B"); ("compaction.bytes_written", "B");
    ("compaction.serialized_jobs", "count"); ("compaction.queue_peak", "count");
    ("compaction.backlog_peak_mb", "MB"); ("compaction.worker_busy_ms", "ms");
    ("compaction.flush_busy_ms", "ms");
    ("block_cache.hit_rate", "ratio"); ("table_cache.hit_rate", "ratio");
    ("index_summary.hits", "count"); ("index_summary.misses", "count");
    ("table.examined_per_get", "count");
    ("block.seek.ns", "ns"); ("block.seek.words", "words");
    ("table.get.ns", "ns"); ("table.get.words", "words");
    ("bloom.checks", "count"); ("bloom.useful_rate", "ratio");
    ("bloom.mem.ns", "ns");
    ("seek_filter.skip_rate", "ratio"); ("merging_iter.seeks", "count");
    ("merging_iter.nexts", "count"); ("merging_iter.next.ns", "ns");
    ("merging_iter.next.words", "words");
    ("core.guards_committed", "count"); ("core.guards_empty", "count");
    ("core.seek_compactions", "count"); ("guard_selector.ns", "ns");
    ("store.put.host_us_p50", "us"); ("store.put.host_us_p99", "us");
    ("store.get.host_us_p50", "us"); ("store.get.host_us_p99", "us");
    ("store.scan.host_us_p50", "us"); ("store.scan.host_us_p99", "us");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("trace.compaction_ms", "ms"); ("trace.flush_ms", "ms");
    ("trace.stall_ms", "ms"); ("trace.probe_ms", "ms");
    ("trace.group_commit", "count"); ("trace.events", "count");
    ("trace.dropped", "count"); ("trace.overhead_pct", "%");
  ]

(* A run averages over [subseeds] stores, each built from its own
   sub-seed: one store's shape (how full each guard and level happens to
   be when the fill ends) moves its read and write costs by several
   percent, and the mean over a few stores is steadier than any one. *)
let subseed seed ~subseeds k = (seed * subseeds) + k

(* Stores per run, enough to bring the spread of every gated metric
   across seeds well inside its bound.  Read costs depend most on a
   store's shape; the leveled engine's shapes vary least and its rounds
   cost the most. *)
let subseeds = function
  | "readrandom" -> 8
  | "ycsb_mixed" -> 6
  | "ycsb_mixed_leveldb" -> 3
  | _ -> 4

(* One round per sub-seed, then repeats cycling through the sub-seeds
   until the time budget is spent, at least one.  Each round's garbage is
   collected before the next, so no round pays for another's.  Returns
   the rounds of each sub-seed, first round first. *)
let rounds workload ~seed ~subseeds ~seconds =
  let t0 = Unix.gettimeofday () in
  let by_sub = Array.make subseeds [] in
  let rec go i =
    let k = i mod subseeds in
    if i > subseeds && Unix.gettimeofday () -. t0 >= float_of_int seconds
    then Array.to_list (Array.map List.rev by_sub)
    else begin
      let r =
        Round.run workload ~seed:(subseed seed ~subseeds k) ~traced:false
      in
      Gc.compact ();
      by_sub.(k) <- r :: by_sub.(k);
      go (i + 1)
    end
  in
  go 0

let kops ops s = float_of_int ops /. s /. 1e3
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Mean over the sub-seeds' first rounds of each named value. *)
let mean_by_name (firsts : (string * float) list list) =
  List.map
    (fun (name, _) -> (name, mean (List.map (List.assoc name) firsts)))
    (List.hd firsts)

(* Simulated metrics, allocation and live heap: means over the sub-seeds'
   first rounds (repeats must match them).  Host time: each sub-seed's
   median CPU time over its rounds, summed; the gated figures are scaled
   to the reference host, the raw ones are printed beside them.  The
   heap's peak is the process's, read at the end of the first phase. *)
let end_to_end (subs : Round.result list list) =
  let firsts = List.map List.hd subs in
  let all = List.concat subs in
  let total f = List.fold_left (fun a r -> a +. f r) 0.0 firsts in
  let ops = List.fold_left (fun a r -> a + r.Round.ops) 0 firsts in
  let med_total f =
    List.fold_left
      (fun a rs -> a +. Stats.median (List.map f rs))
      0.0 subs
  in
  mean_by_name (List.map (fun r -> r.Round.sim) firsts)
  @ [
      ("host_kops", kops ops (med_total (fun r -> r.Round.scaled_cpu_s)));
      ("host_raw_kops", kops ops (med_total (fun r -> r.Round.cpu_s)));
      ("host_wall_kops", kops ops (med_total (fun r -> r.Round.wall_s)));
      ("host_speed", Stats.median (List.map (fun r -> r.Round.speed) all));
      ("host_alloc_words_per_op",
       total (fun r -> r.Round.alloc_words) /. float_of_int ops);
      ("host_peak_heap_mb", (List.hd firsts).Round.peak_heap_mb);
      ("host_live_heap_mb",
       mean (List.map (fun r -> r.Round.live_heap_mb) firsts));
      ("setup_s", Stats.median (List.map (fun r -> r.Round.setup_s) all));
      ("setup_wall_s",
       Stats.median (List.map (fun r -> r.Round.setup_wall_s) all));
    ]

(* Every repeat must reproduce its sub-seed's first round exactly: the
   simulated metrics and the allocation count. *)
let drift (subs : Round.result list list) =
  List.concat
    (List.mapi
       (fun k rs ->
         let r1 = List.hd rs in
         List.concat_map
           (fun (r : Round.result) ->
             (if r.Round.sim <> r1.Round.sim then
                [ Printf.sprintf
                    "drift: sub-seed %d repeat: simulated metrics differ" k ]
              else [])
             @
             if r.Round.alloc_words <> r1.Round.alloc_words then
               [ Printf.sprintf
                   "drift: sub-seed %d repeat: allocated %.0f words, first %.0f"
                   k r.Round.alloc_words r1.Round.alloc_words ]
             else [])
           (List.tl rs))
       subs)

(* Simulated milliseconds per span category, and event counts. *)
let trace_metrics tr =
  let evs = Trace.events tr in
  let ms pred =
    List.fold_left
      (fun acc (e : Trace.event) ->
        if pred e then acc +. (e.Trace.dur_ns /. 1e6) else acc)
      0.0 evs
  in
  let cat c (e : Trace.event) = String.equal e.Trace.cat c in
  let is_flush (e : Trace.event) = String.equal e.Trace.name "flush" in
  [
    ("trace.compaction_ms",
     ms (fun e -> cat "compaction" e && not (is_flush e)));
    ("trace.flush_ms", ms (fun e -> cat "compaction" e && is_flush e));
    ("trace.stall_ms", ms (cat "stall"));
    ("trace.probe_ms", ms (cat "probe"));
    ("trace.group_commit",
     float_of_int
       (List.length
          (List.filter
             (fun (e : Trace.event) -> String.equal e.Trace.name "group-commit")
             evs)));
    ("trace.events", float_of_int (Trace.count tr));
    ("trace.dropped", float_of_int (Trace.dropped tr));
  ]

let host_percentiles host =
  List.concat_map
    (fun (kind, h) ->
      let p q = if H.count h = 0 then 0.0 else H.percentile h q in
      [
        (Printf.sprintf "store.%s.host_us_p50" kind, p 50.0);
        (Printf.sprintf "store.%s.host_us_p99" kind, p 99.0);
      ])
    host

(* The per-layer metrics: the first sub-seed's counters, and a traced
   repeat of its round whose simulated metrics must match, which also
   feeds the replays. *)
let per_layer workload ~seed ~subseeds (rs : Round.result list) =
  let replays = ref [] in
  let traced =
    Round.run workload ~seed:(subseed seed ~subseeds 0) ~traced:true
      ~inspect:(fun store inputs -> replays := Replay.run store inputs)
  in
  let r1 = List.hd rs in
  let untraced = Stats.median (List.map (fun r -> r.Round.scaled_cpu_s) rs) in
  let notes =
    if traced.Round.sim <> r1.Round.sim then
      [ "traced: simulated metrics differ from the untraced rounds" ]
    else []
  in
  let tr = Option.get traced.Round.trace in
  let layers =
    r1.Round.layers @ !replays
    @ host_percentiles traced.Round.host_us
    @ trace_metrics tr
    @ [ ("trace.overhead_pct",
         100.0 *. (traced.Round.scaled_cpu_s -. untraced) /. untraced) ]
  in
  (layers, traced, notes)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;
  samples : (string * int) list;
  per_layer : (string * float) list;
  notes : string list;  (** why [correct] is false *)
}

let measure workload ~seed ~subseeds ~seconds ~trace =
  let subs = rounds workload ~seed ~subseeds ~seconds in
  let layers, extra, notes =
    if trace then
      let layers, traced, notes =
        per_layer workload ~seed ~subseeds (List.hd subs)
      in
      (layers, [ traced ], notes)
    else ([], [], [])
  in
  let all = List.concat subs @ extra in
  let attempted = List.fold_left (fun a r -> a + r.Round.ops) 0 all in
  let failed = List.fold_left (fun a r -> a + r.Round.failed) 0 all in
  let notes = drift subs @ notes in
  {
    correct = failed = 0 && notes = [];
    attempted;
    failed;
    end_to_end =
      end_to_end subs
      @ [ ("error_rate", float_of_int failed /. float_of_int attempted) ];
    samples =
      List.map
        (fun (name, _) ->
          ( name,
            List.fold_left
              (fun a rs -> a + List.assoc name (List.hd rs).Round.samples)
              0 subs ))
        (List.hd (List.hd subs)).Round.samples;
    per_layer = layers;
    notes;
  }

let print_report ~label (r : result) =
  Printf.printf "# %s\n" label;
  List.iter
    (fun (name, v) ->
      let n =
        match List.assoc_opt name r.samples with
        | Some n -> Printf.sprintf "  (n=%d)" n
        | None -> ""
      in
      Printf.printf "%-32s %14.6g%s\n" name v n)
    (r.end_to_end @ r.per_layer);
  Printf.printf "%-32s %14b  (attempted %d, failed %d)\n" "correct" r.correct
    r.attempted r.failed;
  List.iter print_endline r.notes

(* Exactly the named metrics, in order; a missing one is a bug here. *)
let json (r : result) units =
  let values = r.end_to_end @ r.per_layer in
  let metric (name, unit) =
    match List.assoc_opt name values with
    | Some v ->
      Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit
    | None -> failwith ("metric not measured: " ^ name)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric units))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10
  and trace = ref 0 and holdout = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       " " ^ String.concat " | " Gen.workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " host seconds spent on rounds");
      ("--trace", Arg.Set_int trace,
       " 1: add the traced round and replays, report per-layer metrics");
      ("--holdout-seed", Arg.Int (fun s -> holdout := Some s),
       " also measure this seed and print its metrics above the result");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  if not (List.mem !workload Gen.workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let trace = !trace = 1 in
  let run seed =
    measure !workload ~seed ~subseeds:(subseeds !workload) ~seconds:!seconds
      ~trace
  in
  Option.iter
    (fun s -> print_report ~label:(Printf.sprintf "holdout seed %d" s) (run s))
    !holdout;
  let r = run !seed in
  print_report ~label:(Printf.sprintf "%s seed %d" !workload !seed) r;
  print_endline (json r (if trace then per_layer_units else end_to_end_units))
