(** Baseline log-structured merge-tree store (LevelDB-style leveled
    compaction, §2.2).

    This is the stand-in for the paper's LevelDB / RocksDB / HyperLevelDB
    baselines; the three are instances of this engine under different
    {!Pdb_kvs.Options} profiles.  Under the default [leveled] policy the
    engine maintains the classical LSM invariant — every level >= 1 holds
    sstables with disjoint key ranges — and therefore pays the classical
    price: compacting a level rewrites the overlapping sstables of the
    next level, which is the root cause of LSM write amplification that
    FLSM removes.

    Compaction decisions are delegated to a first-class
    {!Pdb_compaction.Policy} value: the same engine also runs [tiered]
    (each level >= 1 holds several overlapping sorted runs, kept
    newest-first like L0 and merged wholesale on trigger) and
    [lazy_leveled] (tiered everywhere except the last level).  Because
    every tiered policy uses whole-level victims, a run resident in a
    tiered level is strictly newer than any run below it that shares
    keys, so newest-first probing stays correct (the L0 argument,
    generalised).  The [flsm_guarded] policy needs guard state and lives
    in the FLSM engine. *)

module Ik = Pdb_kvs.Internal_key
module Iter = Pdb_kvs.Iter
module O = Pdb_kvs.Options
module Env = Pdb_simio.Env
module Clock = Pdb_simio.Clock
module Device = Pdb_simio.Device
module Table = Pdb_sstable.Table
module Wal = Pdb_wal.Wal
module Manifest = Pdb_manifest.Manifest
module Job = Pdb_compaction.Job
module Scheduler = Pdb_compaction.Scheduler
module Policy = Pdb_compaction.Policy
module Sched = Pdb_simio.Sched
module Bp = Pdb_kvs.Backpressure

type t = {
  opts : O.t;
  policy : Policy.t;
  env : Env.t;
  dir : string;
  clock : Clock.t;
  sched : Scheduler.t; (* shared background-compaction scheduler *)
  bp : Bp.t; (* shared write-throttling controller (Backpressure) *)
  stats : Pdb_kvs.Engine_stats.t;
  probe : Pdb_simio.Probe.ctx; (* parallel-probe budget sessions *)
  table_cache : Pdb_sstable.Table_cache.t;
  block_cache : Pdb_sstable.Block_cache.t;
  mutable mem : Pdb_kvs.Memtable.t;
  mutable wal : Wal.Writer.t;
  mutable wal_number : int;
  mutable manifest : Manifest.t;
  mutable next_file : int;
  mutable last_seq : int;
  levels : Level.t array;
      (* level 0: newest first (descending file number); levels >= 1:
         leveled layout = ascending by smallest key, disjoint ranges;
         tiered layout = newest first, runs may overlap *)
  compact_pointer : string array; (* round-robin pick cursor per level *)
  mutable obsolete : string list; (* files awaiting deletion *)
  snapshots : Pdb_kvs.Snapshots.t;
  mutable consecutive_seeks : int;
  mutable closed : bool;
}

let log_name dir n = Printf.sprintf "%s/%06d.log" dir n

let new_file_number t =
  let n = t.next_file in
  t.next_file <- n + 1;
  n

let charge_cpu t ns = Clock.advance_cpu t.clock ns

let user_range_overlap (m : Table.meta) key =
  Ik.compare_user m.Table.smallest key <= 0
  && Ik.compare_user m.Table.largest key >= 0

(* ---------- policy-dependent level layout ---------- *)

let last_level opts = opts.O.max_levels - 1

(* [tiered_layout ~policy ~opts level]: does [level] (>= 1) hold
   overlapping runs (tiering) rather than one sorted run (leveling)? *)
let tiered_layout ~policy ~opts level =
  level >= 1
  && Policy.(
       policy.layout ~level ~last_level:(last_level opts) = Tiered_runs)

let tiered_level t level = tiered_layout ~policy:t.policy ~opts:t.opts level

(* Is [level] one sorted run (disjoint files ascending by smallest key)
   rather than newest-first (level 0 and tiered levels)? *)
let sorted_layout ~policy ~opts level =
  not (level = 0 || tiered_layout ~policy ~opts level)

let sorted_level t level = sorted_layout ~policy:t.policy ~opts:t.opts level

(* [replace_files t level ~removed ~added] drops [removed] from [level]
   and installs [added] in the level's order (see {!Level.replace}). *)
let replace_files t level ~removed ~added =
  t.levels.(level) <-
    Level.replace ~sorted:(sorted_level t level) t.levels.(level) ~removed
      ~added

(* ---------- obsolete-file garbage collection ---------- *)

(* Files are deleted lazily at the next mutating operation, so that open
   iterators (which are invalidated, not protected, by writes — as
   documented in Store_intf) never read a vanished file. *)
(* Superseded files stay pinned while snapshots are live. *)
let gc_obsolete t =
  if Pdb_kvs.Snapshots.is_empty t.snapshots then begin
    List.iter
      (fun name ->
        (* drop the dead file's decoded blocks with it: they can never
           hit again and would squat in the shared LRU *)
        Pdb_sstable.Block_cache.evict_file t.block_cache ~file:name;
        Env.delete t.env name)
      t.obsolete;
    t.obsolete <- []
  end

(* Foreground trace instants (WAL rotations, group commits), stamped at
   the clock's current modeled time.  Callers test [tracing t] first, so
   an untraced run never builds the arguments. *)
let tracing t = Option.is_some (Env.tracer t.env)

let trace_instant t ~name ~cat args =
  match Env.tracer t.env with
  | Some tr ->
    Pdb_simio.Trace.instant tr ~args ~name ~cat ~lane:"foreground"
      ~ts_ns:(Clock.elapsed_ns (Clock.snapshot t.clock))
      ()
  | None -> ()

(* ---------- recovery ---------- *)

(* Replay a list of version edits into mutable local state (each level's
   files, in edit order until [normalize_levels] sorts them); shared with
   the FLSM engine's recovery shape. *)
let apply_edit ~levels ~wal_number ~next_file ~last_seq (e : Manifest.edit) =
  (match e.Manifest.log_number with
   | Some n -> wal_number := n
   | None -> ());
  (match e.Manifest.next_file_number with
   | Some n -> next_file := max !next_file n
   | None -> ());
  (match e.Manifest.last_sequence with
   | Some n -> last_seq := max !last_seq n
   | None -> ());
  (* an edit naming a level this store does not have is rejected, as
     indexing it would be *)
  let known (level, _) =
    if level < 0 || level >= Array.length levels then
      invalid_arg "index out of bounds"
  in
  List.iter known e.Manifest.deleted_files;
  List.iter known e.Manifest.added_files;
  (* per touched level, one pass: drop the deleted numbers, then put the
     added files in front, the last added first *)
  Array.iteri
    (fun level (files : Table.meta array) ->
      let deleted =
        List.filter_map
          (fun (l, number) -> if l = level then Some number else None)
          e.Manifest.deleted_files
      and added =
        List.fold_left
          (fun acc (l, meta) -> if l = level then meta :: acc else acc)
          [] e.Manifest.added_files
      in
      if deleted <> [] || added <> [] then
        levels.(level) <-
          Array.append (Array.of_list added)
            (if deleted = [] then files
             else
               Array.of_list
                 (List.filter
                    (fun (m : Table.meta) ->
                      not (List.mem m.Table.number deleted))
                    (Array.to_list files))))
    levels

(* The recovered levels, each in its layout's order (a stable sort). *)
let normalize_levels ~policy ~opts (levels : Table.meta array array) =
  Array.mapi
    (fun level files ->
      let files = Array.copy files in
      Array.stable_sort
        (Level.order ~sorted:(sorted_layout ~policy ~opts level))
        files;
      Level.of_array files)
    levels

(* Snapshot the whole state as a single edit (written to a fresh MANIFEST
   on every open, as LevelDB does).  Built from recovery-local components
   so the edit can be installed atomically with the MANIFEST itself. *)
let snapshot_edit ~levels ~log_number ~next_file ~last_seq =
  let e = Manifest.empty_edit () in
  e.Manifest.log_number <- Some log_number;
  e.Manifest.next_file_number <- Some next_file;
  e.Manifest.last_sequence <- Some last_seq;
  (* level by level, each level's files last first *)
  let added = ref [] in
  for level = Array.length levels - 1 downto 0 do
    Array.iter
      (fun m -> added := (level, m) :: !added)
      levels.(level).Level.files
  done;
  e.Manifest.added_files <- !added;
  e

(* Replay the WAL numbered [wal_number] into [mem]; returns the highest
   sequence number seen and the reader's recovery report, extended with
   any well-framed records whose batch payload failed to decode — those
   are counted as rejected, never silently skipped.  The log file is
   left in place — it may be deleted only once its contents are durable
   elsewhere (the re-logged fresh WAL installed by open). *)
let replay_wal env ~dir ~wal_number ~mem ~last_seq =
  let name = log_name dir wal_number in
  let seq_max = ref last_seq in
  if Env.exists env name then begin
    let records, report = Wal.Reader.read_all env name in
    let rejected = ref 0 and rejected_bytes = ref 0 in
    List.iter
      (fun record ->
        match Pdb_kvs.Write_batch.decode record with
        | exception Invalid_argument _ ->
          incr rejected;
          rejected_bytes := !rejected_bytes + String.length record
        | batch, base_seq ->
          let seq = ref base_seq in
          Pdb_kvs.Write_batch.iter batch (fun op ->
              (match op with
               | Pdb_kvs.Write_batch.Put (k, v) ->
                 Pdb_kvs.Memtable.add mem ~seq:!seq ~kind:Ik.Value ~user_key:k
                   ~value:v
               | Pdb_kvs.Write_batch.Delete k ->
                 Pdb_kvs.Memtable.add mem ~seq:!seq ~kind:Ik.Deletion
                   ~user_key:k ~value:"");
              incr seq);
          seq_max := max !seq_max (!seq - 1))
      records;
    (!seq_max, Some (report, !rejected, !rejected_bytes))
  end
  else (!seq_max, None)

(* Write the recovered memtable back into a fresh WAL, one record per
   entry so each keeps its original sequence number.  Recovery must never
   leave a window in which acked data exists only in a file the new
   MANIFEST no longer names. *)
let relog_memtable wal mem =
  if not (Pdb_kvs.Memtable.is_empty mem) then begin
    Pdb_kvs.Memtable.iter mem (fun ik v ->
        let b = Pdb_kvs.Write_batch.create () in
        (match Ik.kind ik with
         | Ik.Value -> Pdb_kvs.Write_batch.put b (Ik.user_key ik) v
         | Ik.Deletion -> Pdb_kvs.Write_batch.delete b (Ik.user_key ik));
        Wal.Writer.add_record wal
          (Pdb_kvs.Write_batch.encode b ~base_seq:(Ik.seq ik)));
    Wal.Writer.sync wal
  end

(* ---------- flush (memtable -> level-0 sstable) ---------- *)

let build_table_from_iter t ~iter ~level:_ =
  let number = new_file_number t in
  let builder =
    Table.Builder.create t.env ~dir:t.dir ~number
      ~prefix_bloom_len:t.opts.O.prefix_bloom_len
      ~block_bytes:t.opts.O.block_bytes ~bloom:t.opts.O.sstable_bloom
      ~expected_keys:
        (max 16 (t.opts.O.memtable_bytes / 64) (* rough per-key estimate *))
  in
  iter (fun ikey value ->
      Table.Builder.add builder ikey value;
      Clock.advance t.clock t.opts.O.cpu_per_merge_entry_ns);
  Table.Builder.finish builder

let rec flush_memtable t =
  if not (Pdb_kvs.Memtable.is_empty t.mem) then begin
    let mem = t.mem in
    (* the flush is a background job: the scheduler runs it immediately
       (a full memtable gates the triggering write) and places its
       device time on a worker lane *)
    let meta = ref None in
    Scheduler.run_now t.sched
      {
        Job.key = "flush";
        trigger = Job.Memtable_full;
        estimated_bytes = Pdb_kvs.Memtable.approximate_bytes mem;
        footprint = Sched.full_range ~level_lo:0 ~level_hi:0;
        run =
          (fun () ->
            meta :=
              build_table_from_iter t ~level:0
                ~iter:(Pdb_kvs.Memtable.iter mem));
      };
    let meta = !meta in
    (match meta with
     | Some meta ->
       t.levels.(0) <- Level.cons meta t.levels.(0);
       t.stats.Pdb_kvs.Engine_stats.flushes <-
         t.stats.Pdb_kvs.Engine_stats.flushes + 1;
       t.stats.Pdb_kvs.Engine_stats.sstables_built <-
         t.stats.Pdb_kvs.Engine_stats.sstables_built + 1
     | None -> ());
    (* rotate WAL — crash-safe order: open the new log, commit the
       manifest edit that names it (and the flushed table), and only then
       retire the old log.  Deleting first would leave a window where the
       memtable's data exists in no durable file the MANIFEST names. *)
    let old_log = t.wal_number in
    let new_log = new_file_number t in
    t.wal <- Wal.Writer.create t.env (log_name t.dir new_log);
    t.wal_number <- new_log;
    t.mem <- Pdb_kvs.Memtable.create ();
    let e = Manifest.empty_edit () in
    e.Manifest.log_number <- Some new_log;
    e.Manifest.next_file_number <- Some t.next_file;
    e.Manifest.last_sequence <- Some t.last_seq;
    (match meta with
     | Some m -> e.Manifest.added_files <- [ (0, m) ]
     | None -> ());
    Manifest.append t.manifest e;
    Env.delete t.env (log_name t.dir old_log);
    if tracing t then
      trace_instant t ~name:"wal-rotate" ~cat:"wal"
        [ ("old", string_of_int old_log); ("new", string_of_int new_log) ];
    maybe_compact t
  end

(* ---------- compaction ---------- *)

and level_bytes t level = t.levels.(level).Level.bytes

and level_state t level =
  {
    Policy.level;
    last_level = last_level t.opts;
    files = Level.length t.levels.(level);
    bytes = level_bytes t level;
    max_bytes = O.level_max_bytes t.opts (max 1 level);
    file_trigger = t.opts.O.l0_compaction_trigger;
  }

and compaction_score t level = t.policy.Policy.score (level_state t level)

and pick_inputs t level =
  match t.policy.Policy.victims (level_state t level) with
  | Policy.All_files ->
    (* tiering: the whole level merges wholesale into one new run *)
    Array.to_list t.levels.(level).Level.files
  | Policy.Guard_pick ->
    (* guard state lives in the FLSM engine; rejected at open *)
    assert false
  | Policy.Oldest_overlap_closure -> pick_l0_closure t
  | Policy.Round_robin -> pick_round_robin t level

and pick_l0_closure t =
  begin
    (* the oldest L0 file plus every L0 file overlapping it (LevelDB's
       rule).  On sequential fills the L0 files are disjoint, so this
       selects a single file and enables the trivial-move fast path. *)
    let files = t.levels.(0).Level.files in
    match files with
    | [||] -> []
    | _ ->
      let oldest = files.(Array.length files - 1) in
      let lo = ref (Ik.user_key oldest.Table.smallest)
      and hi = ref (Ik.user_key oldest.Table.largest) in
      (* grow the range transitively over overlapping files *)
      let changed = ref true in
      let selected = ref [ oldest ] in
      while !changed do
        changed := false;
        Array.iter
          (fun (m : Table.meta) ->
            if
              not
                (List.exists
                   (fun (s : Table.meta) -> s.Table.number = m.Table.number)
                   !selected)
              && not
                   (Ik.compare_user m.Table.largest !lo < 0
                    || Ik.compare_user m.Table.smallest !hi > 0)
            then begin
              selected := m :: !selected;
              if Ik.compare_user m.Table.smallest !lo < 0 then
                lo := Ik.user_key m.Table.smallest;
              if Ik.compare_user m.Table.largest !hi > 0 then
                hi := Ik.user_key m.Table.largest;
              changed := true
            end)
          files
      done;
      !selected
  end

and pick_round_robin t level =
  (* round-robin: first [compaction_pick_files] files after the pointer *)
  Level.pick_round_robin t.levels.(level) ~pointer:t.compact_pointer.(level)
    ~pick_files:t.opts.O.compaction_pick_files
    ~next:t.levels.(level + 1)
    ~next_sorted:(sorted_level t (level + 1))

and overlapping_files t level ~smallest ~largest =
  Level.overlapping ~sorted:(sorted_level t level) t.levels.(level) ~smallest
    ~largest

and input_user_range inputs = Level.user_range (Array.of_list inputs)

(* Merge [inputs_lo] (level) and [inputs_hi] (level+1) into new tables for
   level+1.  Runs inside the background lane.

   [drop_tombstones] is sound only when the merge reaches the last level
   AND consumes every target file overlapping the inputs' range: a
   tiered append that leaves sibling runs in place must keep tombstones,
   or deleted keys in those runs would resurrect.

   [single_output] builds one table regardless of size: a run stacked
   onto a tiered level must stay one file, because tiered levels count
   files as runs (the run-count trigger) and order them by recency. *)
and run_merge t ~inputs_lo ~inputs_hi ~drop_tombstones ~single_output =
  let scratch =
    Pdb_sstable.Block_cache.create ~capacity:(8 * t.opts.O.block_bytes)
  in
  let iter_of_meta m =
    (* bypass the table cache: compaction streams its inputs sequentially
       and must not evict hot read-path tables *)
    let reader =
      Table.open_reader ~hint:Device.Sequential_read t.env ~dir:t.dir m
    in
    Table.iterator reader ~cache:scratch ~hint:Device.Sequential_read
  in
  let children = List.map iter_of_meta (inputs_lo @ inputs_hi) in
  let merged = Pdb_kvs.Merging_iter.create ~compare:Ik.compare children in
  let outputs = ref [] in
  let builder = ref None in
  let expected_keys = max 16 (t.opts.O.sstable_target_bytes / 64) in
  let get_builder () =
    match !builder with
    | Some b -> b
    | None ->
      let b =
        Table.Builder.create t.env ~dir:t.dir ~number:(new_file_number t)
          ~prefix_bloom_len:t.opts.O.prefix_bloom_len
          ~block_bytes:t.opts.O.block_bytes ~bloom:t.opts.O.sstable_bloom
          ~expected_keys
      in
      builder := Some b;
      b
  in
  let finish_builder () =
    match !builder with
    | None -> ()
    | Some b ->
      (match Table.Builder.finish b with
       | Some meta -> outputs := meta :: !outputs
       | None -> ());
      builder := None
  in
  (* the previous entry's internal key; "" before the first *)
  let prev = ref "" in
  let value = Iter.slice () in
  merged.Iter.seek_to_first ();
  while merged.Iter.valid () do
    let ikey = merged.Iter.key () in
    Clock.advance t.clock t.opts.O.cpu_per_merge_entry_ns;
    let drop =
      if String.length !prev > 0 && Ik.same_user_key !prev ikey then
        (* superseded version: droppable only when the newer version is
           visible to every live snapshot *)
        Pdb_kvs.Snapshots.droppable t.snapshots
          ~prev_seq:(Some (Ik.seq !prev)) ~last_seq:t.last_seq
      else
        (* tombstones die when they reach the bottom level, unless a
           snapshot still needs them *)
        drop_tombstones
        && Ik.kind ikey = Ik.Deletion
        && Pdb_kvs.Snapshots.tombstone_droppable t.snapshots
             ~seq:(Ik.seq ikey) ~last_seq:t.last_seq
    in
    prev := ikey;
    if not drop then begin
      let b = get_builder () in
      merged.Iter.value_slice value;
      Table.Builder.add_slice b ikey value.Iter.src value.Iter.pos
        value.Iter.len;
      if
        (not single_output)
        && Table.Builder.estimated_size b >= t.opts.O.sstable_target_bytes
      then finish_builder ()
    end;
    merged.Iter.next ()
  done;
  finish_builder ();
  List.rev !outputs

and install_compaction t ~level ~inputs_lo ~inputs_hi ~outputs =
  let target = level + 1 in
  (* update in-memory levels: on a leveled target the outputs replace the
     consumed run in one splice *)
  let in_lo = List.map (fun (m : Table.meta) -> m.Table.number) inputs_lo in
  let in_hi = List.map (fun (m : Table.meta) -> m.Table.number) inputs_hi in
  replace_files t level ~removed:inputs_lo ~added:[];
  replace_files t target ~removed:inputs_hi ~added:outputs;
  (* manifest edit *)
  let e = Manifest.empty_edit () in
  e.Manifest.next_file_number <- Some t.next_file;
  e.Manifest.deleted_files <-
    List.map (fun n -> (level, n)) in_lo
    @ List.map (fun n -> (target, n)) in_hi;
  e.Manifest.added_files <- List.map (fun m -> (target, m)) outputs;
  Manifest.append t.manifest e;
  (* retire inputs *)
  List.iter
    (fun (m : Table.meta) ->
      Pdb_sstable.Table_cache.evict t.table_cache m.Table.number;
      t.obsolete <- Table.file_name ~dir:t.dir m.Table.number :: t.obsolete)
    (inputs_lo @ inputs_hi);
  (* stats *)
  let st = t.stats in
  st.Pdb_kvs.Engine_stats.compactions <-
    st.Pdb_kvs.Engine_stats.compactions + 1;
  st.Pdb_kvs.Engine_stats.compaction_bytes_read <-
    st.Pdb_kvs.Engine_stats.compaction_bytes_read
    + Level.bytes_of_list inputs_lo + Level.bytes_of_list inputs_hi;
  st.Pdb_kvs.Engine_stats.compaction_bytes_written <-
    st.Pdb_kvs.Engine_stats.compaction_bytes_written
    + Level.bytes_of_list outputs;
  st.Pdb_kvs.Engine_stats.sstables_built <-
    st.Pdb_kvs.Engine_stats.sstables_built + List.length outputs

and compact_level t level =
  let inputs_lo = pick_inputs t level in
  if inputs_lo <> [] then begin
    let smallest, largest = input_user_range inputs_lo in
    let target = level + 1 in
    (* output placement: a merging policy rewrites the overlapping target
       files; a stacking policy (tiering) appends beside them *)
    let merges_target =
      t.policy.Policy.output_merges_target ~target
        ~last_level:(last_level t.opts)
    in
    let inputs_hi =
      if merges_target then overlapping_files t target ~smallest ~largest
      else []
    in
    (* record the round-robin cursor *)
    if level > 0 then t.compact_pointer.(level) <- largest;
    match (inputs_lo, inputs_hi) with
    | [ single ], [] ->
      (* trivial move: sequential workloads produce disjoint sstables that
         LSM moves between levels by metadata alone — the case where LSM
         beats FLSM (§5.2 "Sequential Writes").  Safe under tiering too:
         whole-level victims make the single run the entire source level,
         so it is newer than every run already resident in the target. *)
      replace_files t level ~removed:[ single ] ~added:[];
      replace_files t target ~removed:[] ~added:[ single ];
      let e = Manifest.empty_edit () in
      e.Manifest.deleted_files <- [ (level, single.Table.number) ];
      e.Manifest.added_files <- [ (target, single) ];
      Manifest.append t.manifest e
    | _ ->
      (* the caller (a scheduler-drained job) is already on the
         background lane *)
      let drop_tombstones = merges_target && target >= last_level t.opts in
      let outputs =
        run_merge t ~inputs_lo ~inputs_hi ~drop_tombstones
          ~single_output:(not merges_target)
      in
      install_compaction t ~level ~inputs_lo ~inputs_hi ~outputs
  end

(* Footprint of a level -> level+1 compaction: the union key range of the
   level's files.  The actual inputs are picked when the job runs; the
   whole-level range is a sound over-approximation — and an honest one:
   leveled compactions span wide ranges, which is exactly why they
   serialise on the worker timelines where FLSM's guard jobs overlap. *)
and level_footprint t level =
  let lv = t.levels.(level) in
  if Level.is_empty lv then
    Sched.full_range ~level_lo:level ~level_hi:(level + 1)
  else
    let smallest, largest = Level.span ~sorted:(sorted_level t level) lv in
    {
      Sched.level_lo = level;
      level_hi = level + 1;
      key_lo = smallest;
      key_hi = Some (largest ^ "\x00") (* inclusive -> exclusive bound *);
    }

(* The bytes a level's job is booked at in the scheduler's backlog: for a
   round-robin level, the victim and the target run it overlaps, as the
   job will pick them unless an earlier job in its round moves them;
   otherwise (level 0, whole-level victims) the whole level. *)
and job_bytes t level =
  match t.policy.Policy.victims (level_state t level) with
  | Policy.Round_robin when level > 0 ->
    let inputs = pick_round_robin t level in
    let target = level + 1 in
    let overlapped =
      if
        inputs <> []
        && t.policy.Policy.output_merges_target ~target
             ~last_level:(last_level t.opts)
      then
        let smallest, largest = input_user_range inputs in
        Level.bytes_of_list (overlapping_files t target ~smallest ~largest)
      else 0
    in
    Level.bytes_of_list inputs + overlapped
  | _ -> level_bytes t level

and submit_level_job t ~blocked level =
  let trigger = if level = 0 then Job.L0_files else Job.Level_size in
  ignore
    (Scheduler.submit t.sched
       {
         Job.key = Printf.sprintf "%s:%d" (Job.trigger_name trigger) level;
         trigger;
         estimated_bytes = job_bytes t level;
         footprint = level_footprint t level;
         run =
           (fun () ->
             (* re-check: an earlier job in this round's queue may have
                already relieved (or blocked) this level *)
             if
               (not (Hashtbl.mem blocked level))
               && Policy.should_trigger (compaction_score t level)
             then compact_level t level);
       })

and maybe_compact t =
  (* Round-based: enqueue a job for every level over threshold, drain
     the queue, re-examine.  A level whose job made no progress is
     blocked for the rest of this invocation. *)
  let blocked = Hashtbl.create 4 in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let submitted = ref [] in
    for level = 0 to t.opts.O.max_levels - 2 do
      if
        (not (Hashtbl.mem blocked level))
        && Policy.should_trigger (compaction_score t level)
      then begin
        submit_level_job t ~blocked level;
        submitted :=
          (level, (Level.length t.levels.(level), level_bytes t level))
          :: !submitted
      end
    done;
    if !submitted <> [] then begin
      Scheduler.drain t.sched;
      List.iter
        (fun (level, before) ->
          let now = (Level.length t.levels.(level), level_bytes t level) in
          if now = before then Hashtbl.replace blocked level ())
        !submitted;
      continue_ := true
    end
  done

(* ---------- open / close ---------- *)

let open_store ?block_cache (opts : O.t) ~env ~dir =
  (match opts.O.compaction_policy with
   | O.Flsm_guarded ->
     invalid_arg
       "Lsm_store.open_store: the flsm_guarded policy needs guard state \
        (use the pebblesdb engine)"
   | O.Leveled | O.Tiered | O.Lazy_leveled -> ());
  let policy = Policy.of_options opts in
  (* recover the previous shape before touching any file *)
  let levels = Array.make opts.O.max_levels [||] in
  let wal_number = ref 0 and next_file = ref 1 and last_seq = ref 0 in
  let mem = Pdb_kvs.Memtable.create () in
  let wal_report = ref None in
  (match Manifest.recover env ~dir with
   | Some (_, edits) ->
     List.iter (apply_edit ~levels ~wal_number ~next_file ~last_seq) edits;
     let seq, report =
       replay_wal env ~dir ~wal_number:!wal_number ~mem ~last_seq:!last_seq
     in
     last_seq := seq;
     wal_report := report
   | None -> ());
  (* Crash-safe install sequence: (1) write the recovered memtable into a
     fresh WAL, (2) install a fresh MANIFEST whose snapshot edit names that
     WAL — written before the CURRENT switch, so the install is atomic —
     then (3) retire the replayed WAL and any stale files.  An injected
     crash between any two steps recovers to the same state: until CURRENT
     flips, the old MANIFEST still names the old WAL. *)
  let levels = normalize_levels ~policy ~opts levels in
  let new_log = !next_file in
  incr next_file;
  let manifest_number = !next_file in
  incr next_file;
  let wal = Wal.Writer.create env (log_name dir new_log) in
  relog_memtable wal mem;
  let snap =
    snapshot_edit ~levels ~log_number:new_log ~next_file:!next_file
      ~last_seq:!last_seq
  in
  let manifest = Manifest.create env ~dir ~number:manifest_number ~edits:[ snap ] in
  let t =
    {
      opts;
      policy;
      env;
      dir;
      clock = Env.clock env;
      sched =
        Scheduler.create ~env ~clock:(Env.clock env)
          ~flush_lanes:(if opts.O.flush_reserved_lane then 1 else 0)
          ~workers:opts.O.compaction_threads ();
      bp = Bp.create opts;
      stats = Pdb_kvs.Engine_stats.create ();
      probe =
        Pdb_simio.Probe.create_ctx ~clock:(Env.clock env)
          ~budget:(fun () ->
            match opts.O.probe_budget_override with
            | Some b -> b
            | None -> (Env.device env).Device.parallel_probe_budget)
          ~tracer:(fun () -> Env.tracer env)
          ();
      table_cache =
        Pdb_sstable.Table_cache.create ?bytes:opts.O.table_cache_bytes
          ~summary_stride:opts.O.index_summary_stride env ~dir
          ~entries:opts.O.table_cache_entries;
      block_cache =
        (match block_cache with
         | Some cache -> cache  (* shared with the caller's other shards *)
         | None ->
           Pdb_sstable.Block_cache.create ~capacity:opts.O.block_cache_bytes);
      mem;
      wal;
      wal_number = new_log;
      manifest;
      next_file = !next_file;
      last_seq = !last_seq;
      levels;
      compact_pointer = Array.make opts.O.max_levels "";
      obsolete = [];
      snapshots = Pdb_kvs.Snapshots.create ();
      consecutive_seeks = 0;
      closed = false;
    }
  in
  (match !wal_report with
   | Some ((r : Wal.Reader.report), rejected, rejected_bytes) ->
     t.stats.Pdb_kvs.Engine_stats.wal_records_recovered <-
       r.Wal.Reader.records_read - rejected;
     t.stats.Pdb_kvs.Engine_stats.wal_bytes_dropped <-
       r.Wal.Reader.bytes_dropped + rejected_bytes;
     t.stats.Pdb_kvs.Engine_stats.wal_batches_rejected <- rejected
   | None -> ());
  Manifest.cleanup_stale env ~dir ~live_log_number:new_log
    ~live_manifest:(Manifest.file_name t.manifest);
  (* a recovered memtable may already exceed its budget *)
  if Pdb_kvs.Memtable.approximate_bytes t.mem >= t.opts.O.memtable_bytes then
    flush_memtable t;
  t

let close t =
  t.closed <- true;
  gc_obsolete t;
  Wal.Writer.close t.wal

let options t = t.opts
let env t = t.env
let compaction_scheduler t = t.sched
let backpressure t = t.bp

(* mirror the scheduler's counters into the engine stats on read *)
let stats t =
  let st = t.stats in
  let s = Scheduler.stats t.sched in
  st.Pdb_kvs.Engine_stats.compaction_jobs <- s.Scheduler.jobs_run;
  st.Pdb_kvs.Engine_stats.compaction_queue_peak <- s.Scheduler.queue_peak;
  st.Pdb_kvs.Engine_stats.compaction_backlog_peak_bytes <-
    s.Scheduler.backlog_peak_bytes;
  st.Pdb_kvs.Engine_stats.compaction_serialized_jobs <-
    Scheduler.serialized_jobs t.sched;
  st.Pdb_kvs.Engine_stats.compaction_pending <- Scheduler.pending t.sched;
  st.Pdb_kvs.Engine_stats.compaction_backlog_bytes <-
    Scheduler.backlog_bytes t.sched;
  st.Pdb_kvs.Engine_stats.stall_slowdown_ns <- s.Scheduler.stall_slowdown_ns;
  st.Pdb_kvs.Engine_stats.stall_stop_ns <- s.Scheduler.stall_stop_ns;
  st.Pdb_kvs.Engine_stats.worker_busy_ns <- Scheduler.busy_ns t.sched;
  st.Pdb_kvs.Engine_stats.flush_busy_ns <- Scheduler.flush_busy_ns t.sched;
  st.Pdb_kvs.Engine_stats.compaction_by_trigger <- s.Scheduler.by_trigger;
  st.Pdb_kvs.Engine_stats.block_cache_hits <-
    Pdb_sstable.Block_cache.hits t.block_cache;
  st.Pdb_kvs.Engine_stats.block_cache_misses <-
    Pdb_sstable.Block_cache.misses t.block_cache;
  st.Pdb_kvs.Engine_stats.table_cache_hits <-
    Pdb_sstable.Table_cache.hits t.table_cache;
  st.Pdb_kvs.Engine_stats.table_cache_misses <-
    Pdb_sstable.Table_cache.misses t.table_cache;
  st.Pdb_kvs.Engine_stats.summary_hits <-
    Pdb_sstable.Table_cache.summary_hits t.table_cache;
  st.Pdb_kvs.Engine_stats.summary_misses <-
    Pdb_sstable.Table_cache.summary_misses t.table_cache;
  st

(* ---------- writes ---------- *)

let apply_batch_to_memtable t batch base_seq =
  let seq = ref base_seq in
  Pdb_kvs.Write_batch.iter batch (fun op ->
      charge_cpu t t.opts.O.cpu_memtable_op_ns;
      (match op with
       | Pdb_kvs.Write_batch.Put (k, v) ->
         Pdb_kvs.Memtable.add t.mem ~seq:!seq ~kind:Ik.Value ~user_key:k
           ~value:v
       | Pdb_kvs.Write_batch.Delete k ->
         Pdb_kvs.Memtable.add t.mem ~seq:!seq ~kind:Ik.Deletion ~user_key:k
           ~value:"");
      incr seq)

(* All writes commit through the group path ({!Pdb_kvs.Write_group}): a
   solo write is a group of one.  The group's records are framed
   per-batch (log bytes identical at any group size), appended in one
   device write and made durable by one sync — batches are acked only
   when that sync returns. *)
let write_group t batches =
  assert (not t.closed);
  gc_obsolete t;
  t.consecutive_seeks <- 0;
  Pdb_kvs.Write_group.commit
    {
      Pdb_kvs.Write_group.count = Pdb_kvs.Write_batch.count;
      encode = Pdb_kvs.Write_batch.encode;
      alloc_seq =
        (fun n ->
          let base = t.last_seq + 1 in
          t.last_seq <- t.last_seq + n;
          base);
      before_group =
        (fun ~entries ->
          (* write throttling: the shared controller prices the group
             against compaction debt — L0 files not yet pushed down plus
             the scheduler's pending backlog — and the group pays once
             (it enters the device as one write, so penalizing every
             record would overcharge the batch it rode in on) *)
          let debt =
            {
              Bp.l0_files = Level.length t.levels.(0);
              pending_jobs = Scheduler.pending t.sched;
              backlog_bytes = Scheduler.backlog_bytes t.sched;
            }
          in
          let now_ns = Clock.elapsed_ns (Clock.snapshot t.clock) in
          let v = Bp.throttle t.bp ~now_ns ~debt ~cost:entries in
          let total = Bp.total_ns v in
          if total > 0.0 then begin
            Clock.stall t.clock total;
            Scheduler.note_stall t.sched ~slowdown_ns:v.Bp.slowdown_ns
              ~stop_ns:v.Bp.stop_ns;
            t.stats.Pdb_kvs.Engine_stats.write_stalls <-
              t.stats.Pdb_kvs.Engine_stats.write_stalls + 1
          end);
      before_batch =
        (fun batch ->
          let count = Pdb_kvs.Write_batch.count batch in
          let requests =
            if Pdb_kvs.Write_batch.is_bulk batch then 1 else count
          in
          charge_cpu t
            (t.opts.O.op_overhead_write_ns *. float_of_int requests);
          charge_cpu t (t.opts.O.cpu_per_op_ns *. float_of_int count));
      log_append = (fun records -> Wal.Writer.add_records t.wal records);
      log_sync = (fun () -> Wal.Writer.sync t.wal);
      apply =
        (fun batch ~base_seq ->
          apply_batch_to_memtable t batch base_seq;
          t.stats.Pdb_kvs.Engine_stats.user_bytes_written <-
            t.stats.Pdb_kvs.Engine_stats.user_bytes_written
            + Pdb_kvs.Write_batch.payload_bytes batch);
      memtable_full =
        (fun () ->
          Pdb_kvs.Memtable.approximate_bytes t.mem >= t.opts.O.memtable_bytes);
      flush = (fun () -> flush_memtable t);
      sync_writes = t.opts.O.wal_sync_writes;
      stats = t.stats;
    }
    batches;
  (match batches with
   | _ :: _ when tracing t ->
     trace_instant t ~name:"group-commit" ~cat:"wal"
       [ ("batches", string_of_int (List.length batches)) ]
   | _ -> ())

let write t batch = write_group t [ batch ]

let put t k v =
  t.stats.Pdb_kvs.Engine_stats.puts <- t.stats.Pdb_kvs.Engine_stats.puts + 1;
  let b = Pdb_kvs.Write_batch.create () in
  Pdb_kvs.Write_batch.put b k v;
  write t b

let delete t k =
  t.stats.Pdb_kvs.Engine_stats.deletes <-
    t.stats.Pdb_kvs.Engine_stats.deletes + 1;
  let b = Pdb_kvs.Write_batch.create () in
  Pdb_kvs.Write_batch.delete b k;
  write t b

let flush t = flush_memtable t

(* ---------- snapshots ---------- *)

(** [snapshot t] pins the current state for consistent reads; see
    {!Pebblesdb.Pebbles_store.snapshot} for the shared semantics. *)
let snapshot t =
  Pdb_kvs.Snapshots.acquire t.snapshots t.last_seq;
  t.last_seq

let release_snapshot t s = Pdb_kvs.Snapshots.release t.snapshots s

(* ---------- reads ---------- *)

(* Search one table for the freshest version of [key]: [lookup] is the
   get's seek key (built once per get, for its snapshot or the latest
   state) and [h1]/[h2] the key's bloom hashes. *)
let table_lookup t (meta : Table.meta) key ~lookup ~h1 ~h2 =
  (* inside a probe session (L0 pile / tiered-run get) each lookup's
     device time is measured so independent probes overlap up to the
     budget *)
  Pdb_simio.Probe.measure t.probe (fun () ->
      charge_cpu t t.opts.O.cpu_per_sstable_ns;
      t.stats.Pdb_kvs.Engine_stats.sstables_examined <-
        t.stats.Pdb_kvs.Engine_stats.sstables_examined + 1;
      let reader = Pdb_sstable.Table_cache.find t.table_cache meta in
      let pass_bloom =
        if Table.has_filter reader then begin
          charge_cpu t t.opts.O.cpu_bloom_check_ns;
          t.stats.Pdb_kvs.Engine_stats.bloom_checks <-
            t.stats.Pdb_kvs.Engine_stats.bloom_checks + 1;
          let pass = Table.may_contain_hashed reader h1 h2 in
          if not pass then
            t.stats.Pdb_kvs.Engine_stats.bloom_negative <-
              t.stats.Pdb_kvs.Engine_stats.bloom_negative + 1;
          pass
        end
        else true
      in
      if not pass_bloom then None
      else begin
        charge_cpu t t.opts.O.cpu_per_block_search_ns;
        match
          Table.get reader ~cache:t.block_cache ~hint:Device.Random_read
            lookup
        with
        | Some (ikey, value) when Ik.compare_user ikey key = 0 ->
          Some (Ik.kind ikey, value)
        | Some _ | None -> None
      end)

(* A get's search result is still open; a match, not polymorphic [=]. *)
let not_found = function `NotFound -> true | `Found _ | `Deleted -> false

let get ?snapshot t key =
  assert (not t.closed);
  t.stats.Pdb_kvs.Engine_stats.gets <- t.stats.Pdb_kvs.Engine_stats.gets + 1;
  charge_cpu t (t.opts.O.op_overhead_read_ns +. t.opts.O.cpu_per_op_ns);
  let mem_result =
    match snapshot with
    | Some seq -> Pdb_kvs.Memtable.get_at t.mem key ~seq
    | None -> Pdb_kvs.Memtable.get t.mem key
  in
  match mem_result with
  | Some (Some v) -> Some v
  | Some None -> None
  | None ->
    (* the seek key and the bloom hashes, once for every table probed *)
    let lookup =
      match snapshot with
      | Some seq -> Ik.lookup_at ~user_key:key ~seq
      | None -> Ik.max_for_lookup key
    in
    let len = String.length key in
    let h1 = Pdb_bloom.Bloom.hash1 key 0 len
    and h2 = Pdb_bloom.Bloom.hash2 key 0 len in
    (* the candidate tables of one lookup (the L0 pile, a tiered level's
       overlapping runs) are independent random reads: bracket them in a
       probe session so they overlap up to the device budget *)
    Pdb_simio.Probe.with_session t.probe ~label:"get" (fun () ->
        let result = ref `NotFound in
        let probe m =
          match table_lookup t m key ~lookup ~h1 ~h2 with
          | Some (Ik.Value, v) -> result := `Found v
          | Some (Ik.Deletion, _) -> result := `Deleted
          | None -> ()
        in
        (* level 0 and tiered levels: every overlapping file, newest
           first; first hit wins *)
        let search_overlapping (files : Table.meta array) =
          let i = ref 0 in
          while not_found !result && !i < Array.length files do
            let m = files.(!i) in
            if user_range_overlap m key then probe m;
            incr i
          done
        in
        search_overlapping t.levels.(0).Level.files;
        (* deeper levels: leveled layout has at most one candidate file *)
        let level = ref 1 in
        while not_found !result && !level < t.opts.O.max_levels do
          let files = t.levels.(!level).Level.files in
          (if tiered_level t !level then search_overlapping files
           else
             let i = Level.locate files key in
             if i >= 0 then probe files.(i));
          incr level
        done;
        match !result with `Found v -> Some v | `Deleted | `NotFound -> None)

(* ---------- iterators ---------- *)

(* [upper_user] is the iterator's inclusive user-key bound: it licenses the
   seek filter to skip tables past it, and {!iterator} clamps the merged
   output so skipped tables are unobservable. *)
let internal_iterator ?upper_user t =
  let on_table () =
    charge_cpu t t.opts.O.cpu_per_sstable_ns;
    t.stats.Pdb_kvs.Engine_stats.sstables_examined <-
      t.stats.Pdb_kvs.Engine_stats.sstables_examined + 1
  in
  let filter =
    Pdb_sstable.Seek_filter.create ?upper_user
      ~filtering:t.opts.O.seek_filtering
      ~peek:(Pdb_sstable.Table_cache.peek t.table_cache)
      ~on_check:(fun ~skipped ->
        t.stats.Pdb_kvs.Engine_stats.seek_bloom_checks <-
          t.stats.Pdb_kvs.Engine_stats.seek_bloom_checks + 1;
        if skipped then
          t.stats.Pdb_kvs.Engine_stats.seek_bloom_skips <-
            t.stats.Pdb_kvs.Engine_stats.seek_bloom_skips + 1)
      ()
  in
  (* one iterator per overlapping file (L0 and tiered levels): lazy
     filtered wrappers skip the provably-disjoint ones and measure the
     rest for the probe session *)
  let file_iter m =
    let it =
      Pdb_sstable.Seek_filter.table_iterator filter ~cache:t.table_cache
        ~block_cache:t.block_cache ~hint:Device.Random_read ~on_table m
    in
    {
      it with
      Iter.seek =
        (fun k -> Pdb_simio.Probe.measure t.probe (fun () -> it.Iter.seek k));
      seek_to_first =
        (fun () ->
          Pdb_simio.Probe.measure t.probe (fun () -> it.Iter.seek_to_first ()));
    }
  in
  let l0_iters = List.map file_iter (Array.to_list t.levels.(0).Level.files) in
  let level_iters =
    List.concat_map
      (fun level ->
        match t.levels.(level).Level.files with
        | [||] -> []
        | files ->
          if tiered_level t level then
            (* overlapping runs need independent cursors; the merging
               iterator resolves versions by sequence number *)
            List.map file_iter (Array.to_list files)
          else
            [
              Pdb_sstable.Level_iter.create ~filter ~probe:t.probe
                ~cache:t.table_cache ~block_cache:t.block_cache
                ~hint:Device.Random_read ~on_table files;
            ])
      (List.init (t.opts.O.max_levels - 1) (fun i -> i + 1))
  in
  Pdb_kvs.Merging_iter.create ~compare:Ik.compare
    ((Pdb_kvs.Memtable.iterator t.mem :: l0_iters) @ level_iters)

(* LevelDB also compacts in response to repeated seeks (a file's
   allowed_seeks budget); modeled here as draining level 0 after a run of
   consecutive seeks, which is where seek cost concentrates. *)
let note_seek t =
  t.stats.Pdb_kvs.Engine_stats.seeks <- t.stats.Pdb_kvs.Engine_stats.seeks + 1;
  charge_cpu t (t.opts.O.op_overhead_read_ns +. t.opts.O.cpu_per_op_ns);
  if t.opts.O.seek_based_compaction then begin
    t.consecutive_seeks <- t.consecutive_seeks + 1;
    if
      t.consecutive_seeks >= t.opts.O.seek_compaction_threshold
      && not (Level.is_empty t.levels.(0))
    then begin
      t.consecutive_seeks <- 0;
      ignore
        (Scheduler.submit t.sched
           {
             Job.key = "seek:0";
             trigger = Job.Seek;
             estimated_bytes = level_bytes t 0;
             footprint = level_footprint t 0;
             run = (fun () -> compact_level t 0);
           });
      Scheduler.drain t.sched
    end
  end

let iterator ?snapshot ?upper_bound t =
  assert (not t.closed);
  let db =
    Pdb_kvs.Db_iter.wrap ?snapshot
      (internal_iterator ?upper_user:upper_bound t)
  in
  (* the bound is semantic: output is clamped to keys <= upper_bound, so
     tables the seek filter skipped as past-the-bound are unobservable *)
  let in_bound () =
    match upper_bound with
    | None -> true
    | Some up -> String.compare (db.Iter.key ()) up <= 0
  in
  let valid () = db.Iter.valid () && in_bound () in
  let value () =
    if valid () then db.Iter.value ()
    else invalid_arg "iterator: iterator is not valid"
  in
  {
    Iter.seek =
      (fun k ->
        note_seek t;
        Pdb_simio.Probe.with_session t.probe ~label:"seek" (fun () ->
            db.Iter.seek k));
    seek_to_first =
      (fun () ->
        note_seek t;
        Pdb_simio.Probe.with_session t.probe ~label:"seek" (fun () ->
            db.Iter.seek_to_first ()));
    next =
      (fun () ->
        t.stats.Pdb_kvs.Engine_stats.nexts <-
          t.stats.Pdb_kvs.Engine_stats.nexts + 1;
        charge_cpu t t.opts.O.cpu_per_op_ns;
        db.Iter.next ());
    valid;
    key =
      (fun () ->
        if valid () then db.Iter.key ()
        else invalid_arg "iterator: iterator is not valid");
    value;
    value_slice = Iter.slice_of_value value;
  }

(* ---------- maintenance ---------- *)

let compact_all t =
  flush_memtable t;
  (* push every populated level into the next, top-down, as LevelDB's
     manual CompactRange does *)
  for level = 0 to t.opts.O.max_levels - 2 do
    while not (Level.is_empty t.levels.(level)) do
      let inputs_lo = Array.to_list t.levels.(level).Level.files in
      let smallest, largest = input_user_range inputs_lo in
      let inputs_hi = overlapping_files t (level + 1) ~smallest ~largest in
      let bytes = Level.bytes_of_list (inputs_lo @ inputs_hi) in
      Scheduler.run_now t.sched
        {
          Job.key = Printf.sprintf "manual:%d" level;
          trigger = Job.Manual;
          estimated_bytes = bytes;
          footprint = level_footprint t level;
          run =
            (fun () ->
              (* a manual merge consumes every overlapping target file, so
                 tombstones may drop at the bottom under any policy *)
              let outputs =
                run_merge t ~inputs_lo ~inputs_hi
                  ~drop_tombstones:(level + 1 >= last_level t.opts)
                  ~single_output:false
              in
              install_compaction t ~level ~inputs_lo ~inputs_hi ~outputs);
        }
    done
  done;
  gc_obsolete t

let memory_bytes t =
  Pdb_kvs.Memtable.approximate_bytes t.mem
  + Pdb_sstable.Block_cache.used t.block_cache
  + Pdb_sstable.Table_cache.resident_bytes t.table_cache

let describe t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "lsm store (%s, policy=%s)\n" t.opts.O.name
       t.policy.Policy.name);
  Array.iteri
    (fun level (lv : Level.t) ->
      if not (Level.is_empty lv) then begin
        Buffer.add_string buf
          (Printf.sprintf "  level %d (%d files, %d bytes):\n" level
             (Level.length lv) lv.Level.bytes);
        Array.iter
          (fun (m : Table.meta) ->
            Buffer.add_string buf
              (Printf.sprintf "    #%d [%s .. %s] %dB\n" m.Table.number
                 (Ik.user_key m.Table.smallest)
                 (Ik.user_key m.Table.largest)
                 m.Table.file_size))
          lv.Level.files
      end)
    t.levels;
  Buffer.contents buf

let check_invariants t =
  (* L0 newest-first by file number; levels >= 1: leveled layout = sorted
     and disjoint, tiered layout = newest-first (recency order, the
     property reads rely on); every level's byte total current *)
  Array.iteri
    (fun level lv ->
      let what =
        if level = 0 then "L0"
        else if tiered_level t level then Printf.sprintf "tiered level %d" level
        else Printf.sprintf "level %d" level
      in
      Level.check ~sorted:(sorted_level t level) ~what lv)
    t.levels;
  (* every listed file exists *)
  Array.iter
    (fun lv ->
      Array.iter
        (fun (m : Table.meta) ->
          if not (Env.exists t.env (Table.file_name ~dir:t.dir m.Table.number))
          then failwith "lsm invariant: missing sstable file")
        lv.Level.files)
    t.levels

(* number of files per level, for tests and experiments *)
let level_file_counts t = Array.map Level.length t.levels
let level_sizes t = Array.init t.opts.O.max_levels (level_bytes t)

let sstable_metas t =
  List.concat_map
    (fun lv -> Array.to_list lv.Level.files)
    (Array.to_list t.levels)

(* resident tables of one level, in search order (tests) *)
let level_tables t level = Array.to_list t.levels.(level).Level.files
let policy t = t.policy
