(** PebblesDB: a key-value store built over Fragmented Log-Structured Merge
    trees (chapters 3 and 4 of the paper).

    The engine keeps the LevelDB-family shape — memtable + WAL in front of
    a hierarchy of sstable levels recovered through a MANIFEST — but
    replaces the per-level disjointness invariant with guards:

    - level 0 collects fresh memtable flushes (no guards);
    - every deeper level is partitioned by guards ({!Guard}); sstables
      inside a guard may overlap, so compaction *appends* partitioned
      fragments to the next level's guards instead of rewriting the next
      level (§3.4 — the mechanism that removes write amplification);
    - the last level merges within guards, and the second-to-last level
      rewrites in place when merging into a full last-level guard would
      cost more than [last_level_merge_io_factor] times the fragment
      (§3.4's 25x heuristic);
    - reads consult one guard per level, filtered by per-sstable bloom
      filters (§4.1); seeks merge the guard's tables, with parallel seeks
      on the last level and seek-triggered compaction (§4.2). *)

module Ik = Pdb_kvs.Internal_key
module Iter = Pdb_kvs.Iter
module O = Pdb_kvs.Options
module Env = Pdb_simio.Env
module Clock = Pdb_simio.Clock
module Device = Pdb_simio.Device
module Table = Pdb_sstable.Table
module Wal = Pdb_wal.Wal
module Manifest = Pdb_manifest.Manifest
module Stats = Pdb_kvs.Engine_stats
module Job = Pdb_compaction.Job
module Scheduler = Pdb_compaction.Scheduler
module Policy = Pdb_compaction.Policy
module Sched = Pdb_simio.Sched
module Bp = Pdb_kvs.Backpressure

type t = {
  opts : O.t;
  policy : Policy.t; (* the flsm_guarded policy: triggers consult it *)
  env : Env.t;
  dir : string;
  clock : Clock.t;
  sched : Scheduler.t; (* shared background-compaction scheduler *)
  bp : Bp.t; (* shared write-throttling controller (Backpressure) *)
  stats : Stats.t;
  probe : Pdb_simio.Probe.ctx; (* parallel-probe budget sessions *)
  table_cache : Pdb_sstable.Table_cache.t;
  block_cache : Pdb_sstable.Block_cache.t;
  mutable mem : Pdb_kvs.Memtable.t;
  mutable wal : Wal.Writer.t;
  mutable wal_number : int;
  mutable manifest : Manifest.t;
  mutable next_file : int;
  mutable last_seq : int;
  mutable l0 : Table.meta list; (* newest first *)
  levels : Guard.level array; (* slots 1 .. max_levels-1 *)
  committed : (string, unit) Hashtbl.t array; (* guard keys per level *)
  uncommitted : (string, unit) Hashtbl.t array;
  mutable consecutive_seeks : int;
  mutable obsolete : string list;
  snapshots : Pdb_kvs.Snapshots.t;
  mutable closed : bool;
}

let log_name dir n = Printf.sprintf "%s/%06d.log" dir n

let new_file_number t =
  let n = t.next_file in
  t.next_file <- n + 1;
  n

let charge_cpu t ns = Clock.advance_cpu t.clock ns
let last_level t = t.opts.O.max_levels - 1

let user_range_overlap (m : Table.meta) key =
  Ik.compare_user m.Table.smallest key <= 0
  && Ik.compare_user m.Table.largest key >= 0

(* While a snapshot is live, superseded files are pinned (a snapshot
   iterator may still read them); they are collected at the next mutating
   operation after the last snapshot is released. *)
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

(* ---------- guard selection (§3.2) ---------- *)

(* Record [key] as an uncommitted guard for every level where it qualifies
   but is not yet committed.  Deterministic (hash-based), so re-inserting
   the same key is idempotent. *)
let note_guard_candidate t key =
  match Guard_selector.guard_level t.opts key with
  | None -> ()
  | Some l ->
    for level = l to last_level t do
      if
        (not (Hashtbl.mem t.committed.(level) key))
        && not (Hashtbl.mem t.uncommitted.(level) key)
      then Hashtbl.replace t.uncommitted.(level) key ()
    done

(* ---------- table building ---------- *)

let make_builder t =
  Table.Builder.create t.env ~dir:t.dir ~number:(new_file_number t)
    ~prefix_bloom_len:t.opts.O.prefix_bloom_len
    ~block_bytes:t.opts.O.block_bytes ~bloom:t.opts.O.sstable_bloom
    ~expected_keys:(max 16 (t.opts.O.sstable_target_bytes / 64))

(* ---------- flush (§3.4 Put) ---------- *)

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
            let builder = make_builder t in
            Pdb_kvs.Memtable.iter mem (fun ik v ->
                Clock.advance t.clock t.opts.O.cpu_per_merge_entry_ns;
                Table.Builder.add builder ik v);
            meta := Table.Builder.finish builder);
      };
    let meta = !meta in
    (match meta with
     | Some meta ->
       t.l0 <- meta :: t.l0;
       t.stats.Stats.flushes <- t.stats.Stats.flushes + 1;
       t.stats.Stats.sstables_built <- t.stats.Stats.sstables_built + 1
     | None -> ());
    (* rotate the WAL: the old log may only be deleted once the manifest
       edit naming its successor (and the flushed table) is durable —
       deleting first would lose the memtable to a crash in between *)
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

(* ---------- compaction (§3.4) ---------- *)

and level_bytes t level = Guard.bytes t.levels.(level)

(* Merge [inputs] and partition the result along the guards of
   [target_level], appending fragments to their guards.

   The 25x heuristic (§3.4): when compacting the second-highest level into
   the last, a fragment aimed at a *full* last-level guard whose resident
   data dwarfs the fragment is instead rewritten within the source level —
   "FLSM will rewrite an sstable into the same level if the alternative is
   to merge into a large sstable in the highest level".  Redirected output
   is cut at *source*-level guard granularity with the large (last-level)
   size cutoff, so the rewrite coalesces the guard instead of fragmenting
   it further.  Returns the (attach_level, meta) list for the manifest
   edit. *)
and run_partition_merge t ~inputs ~source_level ~target_level =
  let target = t.levels.(target_level) in
  let bottom = target_level = last_level t in
  let big_cutoff = 16 * t.opts.O.sstable_target_bytes in
  (* per-target-guard redirect decision, fixed for the whole compaction *)
  let redirect =
    if bottom && source_level = target_level - 1 && source_level >= 1 then
      Array.map
        (fun (g : Guard.guard) ->
          List.length g.Guard.tables >= t.opts.O.max_sstables_per_guard
          &&
          let guard_bytes =
            List.fold_left
              (fun a (m : Table.meta) -> a + m.Table.file_size)
              0 g.Guard.tables
          in
          float_of_int guard_bytes
          >= t.opts.O.last_level_merge_io_factor
             *. float_of_int t.opts.O.sstable_target_bytes)
        target.Guard.guards
    else [||]
  in
  let scratch =
    Pdb_sstable.Block_cache.create ~capacity:(8 * t.opts.O.block_bytes)
  in
  let children =
    List.map
      (fun m ->
        (* bypass the table cache: compaction streams inputs sequentially *)
        let reader =
          Table.open_reader ~hint:Device.Sequential_read t.env ~dir:t.dir m
        in
        Table.iterator reader ~cache:scratch ~hint:Device.Sequential_read)
      inputs
  in
  let merged = Pdb_kvs.Merging_iter.create ~compare:Ik.compare children in
  let outputs = ref [] in
  let builder = ref None in
  (* partition of the open builder: attach level and boundary segment *)
  let builder_level = ref (-1) and builder_segment = ref (-1) in
  let builder_cutoff = ref 0 in
  let finish_builder () =
    match !builder with
    | None -> ()
    | Some b ->
      (match Table.Builder.finish b with
       | Some meta ->
         outputs := (!builder_level, meta) :: !outputs;
         t.stats.Stats.sstables_built <- t.stats.Stats.sstables_built + 1
       | None -> ());
      builder := None
  in
  let get_builder level segment cutoff =
    match !builder with
    | Some b when !builder_level = level && !builder_segment = segment -> b
    | Some _ | None ->
      finish_builder ();
      let b = make_builder t in
      builder := Some b;
      builder_level := level;
      builder_segment := segment;
      builder_cutoff := cutoff;
      b
  in
  (* output is cut at committed AND pending boundaries, so pending guards
     become committable at their next opportunity *)
  let target_bounds = partition_boundaries t target_level in
  let source_bounds =
    if source_level >= 1 then partition_boundaries t source_level else [||]
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
        (* freshest version of this key.  A tombstone may die here only if
           the target guard holds no older sstables — unlike an LSM
           bottom-level compaction, a partition *append* leaves the guard's
           resident tables unmerged, so dropping the tombstone would
           resurrect older versions — and only when no snapshot still
           needs it. *)
        bottom
        && Ik.kind ikey = Ik.Deletion
        && target.Guard.guards.(Guard.guard_index target (Ik.user_key ikey))
             .Guard.tables = []
        && Pdb_kvs.Snapshots.tombstone_droppable t.snapshots
             ~seq:(Ik.seq ikey) ~last_seq:t.last_seq
    in
    prev := ikey;
    if not drop then begin
      let uk = Ik.user_key ikey in
      let tgi = Guard.guard_index target uk in
      let b =
        if Array.length redirect > tgi && redirect.(tgi) then
          (* rewrite within the source level at source granularity *)
          get_builder source_level (boundary_index source_bounds uk)
            big_cutoff
        else
          (* a fragment is everything that falls into the guard — FLSM does
             not re-cut fragments to a target size (PebblesDB's sstables
             grow much larger than LevelDB's, Table 5.1) *)
          get_builder target_level (boundary_index target_bounds uk) max_int
      in
      merged.Iter.value_slice value;
      Table.Builder.add_slice b ikey value.Iter.src value.Iter.pos
        value.Iter.len;
      if Table.Builder.estimated_size b >= !builder_cutoff then
        finish_builder ()
    end;
    merged.Iter.next ()
  done;
  finish_builder ();
  List.rev !outputs

(* Sorted boundary keys of [level]: committed guards plus pending
   (uncommitted) ones.  Compaction output is always cut at these
   boundaries, so a pending guard never faces a straddling sstable for
   long: the next merge through its range dissolves the straddler, after
   which the guard commits for free. *)
and partition_boundaries t level =
  let lvl = t.levels.(level) in
  let committed =
    Array.to_list lvl.Guard.guards
    |> List.filter_map (fun (g : Guard.guard) ->
           if g.Guard.gkey = "" then None else Some g.Guard.gkey)
  in
  let pending = Hashtbl.fold (fun k () acc -> k :: acc) t.uncommitted.(level) [] in
  Array.of_list (List.sort_uniq String.compare (committed @ pending))

(* index of the boundary interval containing [key]: number of boundaries
   <= key (0 = before the first boundary, i.e. the sentinel range) *)
and boundary_index boundaries key =
  let lo = ref 0 and hi = ref (Array.length boundaries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare boundaries.(mid) key <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* Commit the uncommitted guards of [level] that no resident sstable
   straddles (the others stay pending and retry at the next compaction —
   guard insertion is asynchronous, §3.3).  Returns the committed keys. *)
and prepare_guard_commit t level =
  let pending =
    Hashtbl.fold (fun k () acc -> k :: acc) t.uncommitted.(level) []
    |> List.sort String.compare
  in
  if pending = [] then []
  else begin
    let lvl = t.levels.(level) in
    let tables = Guard.all_tables lvl in
    let committable =
      List.filter
        (fun k -> not (List.exists (fun m -> Guard.straddles k m) tables))
        pending
    in
    if committable <> [] then begin
      Guard.commit_guards lvl committable;
      List.iter
        (fun k ->
          Hashtbl.replace t.committed.(level) k ();
          Hashtbl.remove t.uncommitted.(level) k)
        committable;
      t.stats.Stats.guards_committed <-
        t.stats.Stats.guards_committed + List.length committable
    end;
    committable
  end

(* Commit whatever pending guards of [level] are now straddle-free and
   persist them. *)
and commit_pending_with_edit t level =
  if Hashtbl.length t.uncommitted.(level) > 0 then begin
    let new_keys = prepare_guard_commit t level in
    if new_keys <> [] then begin
      let e = Manifest.empty_edit () in
      e.Manifest.added_guards <- List.map (fun k -> (level, k)) new_keys;
      Manifest.append t.manifest e
    end
  end

and retire_tables t inputs =
  List.iter
    (fun (m : Table.meta) ->
      Pdb_sstable.Table_cache.evict t.table_cache m.Table.number;
      t.obsolete <- Table.file_name ~dir:t.dir m.Table.number :: t.obsolete)
    inputs

and record_compaction_stats t ~inputs ~outputs =
  let bytes_of =
    List.fold_left (fun a (m : Table.meta) -> a + m.Table.file_size) 0
  in
  t.stats.Stats.compactions <- t.stats.Stats.compactions + 1;
  t.stats.Stats.compaction_bytes_read <-
    t.stats.Stats.compaction_bytes_read + bytes_of inputs;
  t.stats.Stats.compaction_bytes_written <-
    t.stats.Stats.compaction_bytes_written
    + bytes_of (List.map snd outputs)

(* Compact [source_level] into [source_level + 1].  [only_guards] restricts
   the source guards (seek-triggered compaction); default picks guards over
   the sstable trigger, falling back to all non-empty guards. *)
and compact_level t ?only_guards source_level =
  let target_level = source_level + 1 in
  assert (target_level <= last_level t);
  (* 1. source tables *)
  let source_tables =
    if source_level = 0 then t.l0
    else begin
      let lvl = t.levels.(source_level) in
      let chosen =
        match only_guards with
        | Some gs -> gs
        | None ->
          let over =
            Array.to_list lvl.Guard.guards
            |> List.filter (fun g ->
                   List.length g.Guard.tables >= t.opts.O.guard_sstable_trigger)
          in
          if over <> [] then over
          else
            Array.to_list lvl.Guard.guards
            |> List.filter (fun g -> g.Guard.tables <> [])
      in
      List.concat_map (fun g -> g.Guard.tables) chosen
    end
  in
  if source_tables <> [] then begin
    (* 2. commit the straddle-free pending guards of the target level
       (guard insertion is asynchronous, §3.3; straddled guards stay
       pending until a merge through their range dissolves the straddler,
       which the boundary-aware output cutting guarantees) *)
    let new_keys = prepare_guard_commit t target_level in
    let inputs = source_tables in
    (* 3. detach inputs *)
    if source_level = 0 then
      t.l0 <-
        List.filter
          (fun (m : Table.meta) ->
            not
              (List.exists
                 (fun (i : Table.meta) -> i.Table.number = m.Table.number)
                 source_tables))
          t.l0
    else
      Guard.detach t.levels.(source_level)
        (List.map (fun (m : Table.meta) -> m.Table.number) source_tables);
    (* 4. merge + partition + attach *)
    let outputs =
      Clock.with_background t.clock (fun () ->
          run_partition_merge t ~inputs ~source_level ~target_level)
    in
    List.iter
      (fun (attach_level, (meta : Table.meta)) ->
        Pdb_kvs.Engine_stats.bump_breakdown t.stats
          (if attach_level = target_level then
             Printf.sprintf "partition L%d->L%d" source_level target_level
           else Printf.sprintf "rewrite-in-L%d" attach_level)
          meta.Table.file_size;
        if attach_level = 0 then t.l0 <- meta :: t.l0
        else Guard.attach t.levels.(attach_level) meta)
      outputs;
    (* 5. persist *)
    let e = Manifest.empty_edit () in
    e.Manifest.next_file_number <- Some t.next_file;
    e.Manifest.added_guards <-
      List.map (fun k -> (target_level, k)) new_keys;
    e.Manifest.deleted_files <-
      List.map
        (fun (m : Table.meta) -> (source_level, m.Table.number))
        source_tables;
    e.Manifest.added_files <- outputs;
    Manifest.append t.manifest e;
    retire_tables t inputs;
    record_compaction_stats t ~inputs ~outputs
  end

(* Merge sstables within one last-level guard — the only place FLSM
   rewrites data at the bottom of the tree (§3.4).  To keep the rewrite
   amortized (tiering), the merge normally coalesces only the newest run of
   *small* fragments, leaving established large runs untouched; merging a
   newest-prefix is recency-safe but must keep tombstones (older versions
   may survive in the unmerged tail).  Only when the guard has degenerated
   into few large runs does it fall back to a full rewrite, which is also
   when tombstones can finally be dropped. *)
and compact_last_level_guard ?(force_full = false) t (g : Guard.guard) =
  if List.length g.Guard.tables >= 2 then begin
    let all = g.Guard.tables in
    let guard_bytes =
      List.fold_left (fun a (m : Table.meta) -> a + m.Table.file_size) 0 all
    in
    let small_threshold = max (2 * t.opts.O.sstable_target_bytes)
        (guard_bytes / 4) in
    let rec newest_small_prefix = function
      | (m : Table.meta) :: rest when m.Table.file_size < small_threshold ->
        m :: newest_small_prefix rest
      | _ -> []
    in
    let prefix = newest_small_prefix all in
    let inputs, drop_tombstones =
      if
        (not force_full)
        && List.length prefix >= 2
        && List.length prefix < List.length all
      then (prefix, false)
      else (all, true)
    in
    let level_idx = last_level t in
    let lvl = t.levels.(level_idx) in
    (* detach only the inputs; any remaining (older, larger) runs stay *)
    let input_numbers =
      List.map (fun (m : Table.meta) -> m.Table.number) inputs
    in
    Guard.detach lvl input_numbers;
    let outputs =
      Clock.with_background t.clock (fun () ->
          let scratch =
            Pdb_sstable.Block_cache.create
              ~capacity:(8 * t.opts.O.block_bytes)
          in
          let children =
            List.map
              (fun m ->
                let reader =
                  Table.open_reader ~hint:Device.Sequential_read t.env
                    ~dir:t.dir m
                in
                Table.iterator reader ~cache:scratch
                  ~hint:Device.Sequential_read)
              inputs
          in
          let merged =
            Pdb_kvs.Merging_iter.create ~compare:Ik.compare children
          in
          (* guard-merged tables grow large — the source of PebblesDB's
             bigger sstables (Table 5.1).  The cutoff also guarantees the
             merged run lands below the per-guard cap, so the merge cannot
             re-trigger itself. *)
          let total_bytes =
            List.fold_left
              (fun a (m : Table.meta) -> a + m.Table.file_size)
              0 inputs
          in
          let cutoff =
            max
              (16 * t.opts.O.sstable_target_bytes)
              ((total_bytes / max 1 (t.opts.O.max_sstables_per_guard - 1)) + 1)
          in
          let bounds = partition_boundaries t level_idx in
          let outputs = ref [] in
          let builder = ref None in
          let builder_segment = ref (-1) in
          let finish () =
            match !builder with
            | None -> ()
            | Some b ->
              (match Table.Builder.finish b with
               | Some meta ->
                 outputs := meta :: !outputs;
                 t.stats.Stats.sstables_built <-
                   t.stats.Stats.sstables_built + 1
               | None -> ());
              builder := None
          in
          let prev = ref "" in
          let value = Iter.slice () in
          merged.Iter.seek_to_first ();
          while merged.Iter.valid () do
            let ikey = merged.Iter.key () in
            Clock.advance t.clock t.opts.O.cpu_per_merge_entry_ns;
            let drop =
              if String.length !prev > 0 && Ik.same_user_key !prev ikey then
                Pdb_kvs.Snapshots.droppable t.snapshots
                  ~prev_seq:(Some (Ik.seq !prev)) ~last_seq:t.last_seq
              else
                drop_tombstones
                && Ik.kind ikey = Ik.Deletion
                && Pdb_kvs.Snapshots.tombstone_droppable t.snapshots
                     ~seq:(Ik.seq ikey) ~last_seq:t.last_seq
            in
            prev := ikey;
            if not drop then begin
              (* cut at pending-guard boundaries too *)
              let segment = boundary_index bounds (Ik.user_key ikey) in
              if !builder_segment <> segment then begin
                finish ();
                builder_segment := segment
              end;
              let b =
                match !builder with
                | Some b -> b
                | None ->
                  let b = make_builder t in
                  builder := Some b;
                  b
              in
              merged.Iter.value_slice value;
              Table.Builder.add_slice b ikey value.Iter.src value.Iter.pos
                value.Iter.len;
              if Table.Builder.estimated_size b >= cutoff then finish ()
            end;
            merged.Iter.next ()
          done;
          finish ();
          List.rev !outputs)
    in
    List.iter
      (fun (meta : Table.meta) ->
        Pdb_kvs.Engine_stats.bump_breakdown t.stats
          (if drop_tombstones then "guard-merge-full" else "guard-merge-tier")
          meta.Table.file_size;
        Guard.attach lvl meta)
      outputs;
    let e = Manifest.empty_edit () in
    e.Manifest.next_file_number <- Some t.next_file;
    e.Manifest.deleted_files <-
      List.map (fun (m : Table.meta) -> (level_idx, m.Table.number)) inputs;
    e.Manifest.added_files <- List.map (fun m -> (level_idx, m)) outputs;
    Manifest.append t.manifest e;
    retire_tables t inputs;
    record_compaction_stats t ~inputs
      ~outputs:(List.map (fun m -> (level_idx, m)) outputs)
  end

(* Guard-scoped footprint: jobs over disjoint guards get disjoint key
   ranges, which is what lets the scheduler overlap them on separate
   worker timelines (§4.3). *)
and guard_footprint t level gkey ~level_hi =
  let lvl = t.levels.(level) in
  let key_lo, key_hi = Guard.guard_range lvl (Guard.guard_index lvl gkey) in
  { Sched.level_lo = level; level_hi; key_lo; key_hi }

and guard_bytes (g : Guard.guard) =
  List.fold_left
    (fun a (m : Table.meta) -> a + m.Table.file_size)
    0 g.Guard.tables

(* Jobs capture guard *keys*, not guard records: a preceding job in the
   queue may have spliced the guard array (commit_guards recreates
   records), so the closure re-resolves at execution time. *)
and find_guard t level gkey =
  Array.to_list t.levels.(level).Guard.guards
  |> List.find_opt (fun (g : Guard.guard) -> g.Guard.gkey = gkey)

(* ---------- policy consultation ---------- *)

(* The FLSM triggers phrased as policy scores: L0 back-pressure and level
   size are the shared [level_state] scores, guard caps are
   [guard_score].  One [Policy.should_trigger] threshold replaces the
   inline comparisons. *)
and l0_due t =
  Policy.should_trigger
    (t.policy.Policy.score
       {
         Policy.level = 0;
         last_level = last_level t;
         files = List.length t.l0;
         bytes =
           List.fold_left
             (fun a (m : Table.meta) -> a + m.Table.file_size)
             0 t.l0;
         max_bytes = O.level_max_bytes t.opts 1;
         file_trigger = t.opts.O.l0_compaction_trigger;
       })

and level_due t level =
  Policy.should_trigger
    (t.policy.Policy.score
       {
         Policy.level;
         last_level = last_level t;
         files = Guard.table_count t.levels.(level);
         bytes = level_bytes t level;
         max_bytes = O.level_max_bytes t.opts level;
         file_trigger = t.opts.O.l0_compaction_trigger;
       })

and guard_due ?cap t (g : Guard.guard) =
  let cap =
    match cap with Some c -> c | None -> t.opts.O.max_sstables_per_guard
  in
  Policy.should_trigger
    (t.policy.Policy.guard_score
       { Policy.g_tables = List.length g.Guard.tables; g_cap = cap })

and maybe_compact t =
  (* Commit pending guards of still-empty levels up front: with no resident
     sstables there is nothing to split, so the commit is pure metadata.
     This is the cheap common case — guards are selected long before data
     reaches deep levels. *)
  let eager = ref [] in
  for level = 1 to last_level t do
    if
      Guard.table_count t.levels.(level) = 0
      && Hashtbl.length t.uncommitted.(level) > 0
    then begin
      let new_keys = prepare_guard_commit t level in
      eager := List.map (fun k -> (level, k)) new_keys @ !eager
    end
  done;
  if !eager <> [] then begin
    let e = Manifest.empty_edit () in
    e.Manifest.added_guards <- !eager;
    Manifest.append t.manifest e
  end;
  (* Round-based picking: reify every trigger firing on the current state
     as a job, enqueue the batch, drain it, re-examine.  A job
     re-validates its trigger when it runs (an earlier job in the batch
     may have restructured the tree), and a job that runs without
     shrinking its measure is blocked for the rest of this invocation —
     the same no-progress guards the old inline loop used. *)
  let blocked = Hashtbl.create 8 in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let submitted = ref false in
    (* [enqueue key trigger ~estimated_bytes ~footprint ~measure run]:
       progress = [measure] strictly decreased across the job's run *)
    let enqueue key trigger ~estimated_bytes ~footprint ~measure run =
      if not (Hashtbl.mem blocked key) then begin
        let job =
          {
            Job.key;
            trigger;
            estimated_bytes;
            footprint;
            run =
              (fun () ->
                let before = measure () in
                run ();
                if measure () >= before then Hashtbl.replace blocked key ());
          }
        in
        if Scheduler.submit t.sched job then submitted := true
      end
    in
    (* L0 back-pressure *)
    if l0_due t then
      enqueue "l0" Job.L0_files
        ~estimated_bytes:
          (List.fold_left
             (fun a (m : Table.meta) -> a + m.Table.file_size)
             0 t.l0)
        ~footprint:(Sched.full_range ~level_lo:0 ~level_hi:1)
        ~measure:(fun () -> List.length t.l0)
        (fun () -> if l0_due t then compact_level t 0);
    (* level size triggers — measured in bytes: 25x-redirected rewrites
       can leave the size unchanged, which must count as no progress *)
    for level = 1 to last_level t - 1 do
      if level_due t level then
        enqueue
          (Printf.sprintf "size:%d" level)
          Job.Level_size
          ~estimated_bytes:(level_bytes t level)
          ~footprint:(Sched.full_range ~level_lo:level ~level_hi:(level + 1))
          ~measure:(fun () -> level_bytes t level)
          (fun () -> if level_due t level then compact_level t level)
    done;
    (* per-guard caps: one job per full guard — FLSM's unit of compaction
       concurrency *)
    for level = 1 to last_level t - 1 do
      Array.iter
        (fun (g : Guard.guard) ->
          if guard_due t g then begin
            let gkey = g.Guard.gkey in
            let tables_of () =
              match find_guard t level gkey with
              | Some g -> List.length g.Guard.tables
              | None -> 0
            in
            enqueue
              (Printf.sprintf "cap:%d:%s" level gkey)
              Job.Guard_cap ~estimated_bytes:(guard_bytes g)
              ~footprint:(guard_footprint t level gkey ~level_hi:(level + 1))
              ~measure:tables_of
              (fun () ->
                match find_guard t level gkey with
                | Some g when guard_due t g ->
                  compact_level t ~only_guards:[ g ] level
                | Some _ | None -> ())
          end)
        t.levels.(level).Guard.guards
    done;
    (* last-level guard merges; committing pending guards first refines
       the structure (boundary-cut fragments redistribute into their own
       guards) and often removes the need to merge at all *)
    commit_pending_with_edit t (last_level t);
    let ll = last_level t in
    let last_cap = max 2 t.opts.O.max_sstables_per_guard in
    Array.iter
      (fun (g : Guard.guard) ->
        if guard_due ~cap:last_cap t g then begin
          let gkey = g.Guard.gkey in
          let tables_of () =
            match find_guard t ll gkey with
            | Some g -> List.length g.Guard.tables
            | None -> 0
          in
          enqueue
            (Printf.sprintf "last:%s" gkey)
            Job.Guard_merge ~estimated_bytes:(guard_bytes g)
            ~footprint:(guard_footprint t ll gkey ~level_hi:ll)
            ~measure:tables_of
            (fun () ->
              match find_guard t ll gkey with
              | Some g when guard_due ~cap:last_cap t g ->
                let before = List.length g.Guard.tables in
                compact_last_level_guard t g;
                if tables_of () >= before then
                  (* the tiered merge could not shrink the guard (an old
                     run straddles a pending boundary): rewrite the whole
                     guard, which dissolves every straddler *)
                  (match find_guard t ll gkey with
                   | Some g -> compact_last_level_guard ~force_full:true t g
                   | None -> ())
              | Some _ | None -> ())
        end)
      t.levels.(ll).Guard.guards;
    if !submitted then begin
      Scheduler.drain t.sched;
      continue_ := true
    end
  done

(* Seek-triggered maintenance (§4.2): compact the most fragmented guard and
   apply the aggressive level rule.  A rare whole-tree event, reified as a
   single job and drained synchronously. *)
and seek_compaction t =
  t.stats.Stats.seek_compactions <- t.stats.Stats.seek_compactions + 1;
  ignore
    (Scheduler.submit t.sched
       {
         Job.key = "seek";
         trigger = Job.Seek;
         estimated_bytes = 0;
         footprint = Sched.full_range ~level_lo:1 ~level_hi:(last_level t);
         run = (fun () -> run_seek_compaction t);
       });
  Scheduler.drain t.sched

and run_seek_compaction t =
  (* most fragmented guard across levels 1 .. last-1 *)
  let best = ref None in
  for level = 1 to last_level t - 1 do
    Array.iter
      (fun g ->
        let n = List.length g.Guard.tables in
        if n >= 2 then
          match !best with
          | Some (_, _, bn) when bn >= n -> ()
          | _ -> best := Some (level, g, n))
      t.levels.(level).Guard.guards
  done;
  (match !best with
   | Some (level, g, _) -> compact_level t ~only_guards:[ g ] level
   | None -> ());
  (* fragmented last-level guards merge in place *)
  commit_pending_with_edit t (last_level t);
  let lvl = t.levels.(last_level t) in
  let worst = ref None in
  Array.iter
    (fun g ->
      let n = List.length g.Guard.tables in
      if n >= 2 then
        match !worst with
        | Some (_, bn) when bn >= n -> ()
        | _ -> worst := Some (g, n))
    lvl.Guard.guards;
  (match !worst with
   | Some (g, _) -> compact_last_level_guard t g
   | None -> ());
  (* aggressive level rule: level i within 25% of level i+1 *)
  let continue = ref true in
  for level = 1 to last_level t - 1 do
    if !continue then begin
      let here = level_bytes t level and below = level_bytes t (level + 1) in
      if
        here > 0 && below > 0
        && float_of_int here >= t.opts.O.aggressive_level_ratio *. float_of_int below
      then begin
        compact_level t level;
        continue := false
      end
    end
  done

(* ---------- open / close ---------- *)

let apply_edit ~l0 ~levels ~committed ~wal_number ~next_file ~last_seq
    (e : Manifest.edit) =
  (match e.Manifest.log_number with Some n -> wal_number := n | None -> ());
  (match e.Manifest.next_file_number with
   | Some n -> next_file := max !next_file n
   | None -> ());
  (match e.Manifest.last_sequence with
   | Some n -> last_seq := max !last_seq n
   | None -> ());
  (* order matters: deletions, guard removals, guard additions, file adds *)
  List.iter
    (fun (level, number) ->
      if level = 0 then
        l0 :=
          List.filter (fun (m : Table.meta) -> m.Table.number <> number) !l0
      else Guard.detach levels.(level) [ number ])
    e.Manifest.deleted_files;
  List.iter
    (fun (level, key) ->
      Guard.delete_guard levels.(level) key;
      Hashtbl.remove committed.(level) key)
    e.Manifest.deleted_guards;
  List.iter
    (fun (level, key) ->
      Guard.commit_guards levels.(level) [ key ];
      Hashtbl.replace committed.(level) key ())
    e.Manifest.added_guards;
  List.iter
    (fun (level, meta) ->
      if level = 0 then l0 := meta :: !l0
      else Guard.attach levels.(level) meta)
    e.Manifest.added_files

(* Component-based so [open_store] can build the snapshot before the
   store record exists: the snapshot must be part of the fresh MANIFEST at
   creation time, or a crash between install and a follow-up append would
   leave an installed MANIFEST describing an empty store. *)
let snapshot_edit ~(opts : O.t) ~l0 ~levels ~log_number ~next_file ~last_seq =
  let levels_above = opts.O.max_levels - 1 in
  let e = Manifest.empty_edit () in
  e.Manifest.log_number <- Some log_number;
  e.Manifest.next_file_number <- Some next_file;
  e.Manifest.last_sequence <- Some last_seq;
  e.Manifest.added_guards <-
    List.concat
      (List.init levels_above (fun i ->
           let level = i + 1 in
           Array.to_list levels.(level).Guard.guards
           |> List.filter_map (fun g ->
                  if g.Guard.gkey = "" then None
                  else Some (level, g.Guard.gkey))));
  e.Manifest.added_files <-
    List.map (fun m -> (0, m)) (List.rev l0)
    @ List.concat
        (List.init levels_above (fun i ->
             let level = i + 1 in
             (* oldest-first so recovery prepends back to newest-first *)
             Array.to_list levels.(level).Guard.guards
             |> List.concat_map (fun g ->
                    List.rev_map (fun m -> (level, m)) g.Guard.tables)));
  e

(* Re-log a recovered memtable into a fresh WAL and sync it: the old log
   may only be deleted once every record it held is durable again. *)
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

let open_store ?block_cache (opts : O.t) ~env ~dir =
  (match opts.O.compaction_policy with
   | O.Flsm_guarded -> ()
   | (O.Leveled | O.Tiered | O.Lazy_leveled) as p ->
     invalid_arg
       (Printf.sprintf
          "Pebbles_store.open_store: policy %s has no guard structure (use \
           the LSM engine)"
          (O.compaction_policy_name p)));
  let levels = Array.init opts.O.max_levels (fun _ -> Guard.create_level ()) in
  let committed = Array.init opts.O.max_levels (fun _ -> Hashtbl.create 64) in
  let l0 = ref [] in
  let wal_number = ref 0 and next_file = ref 1 and last_seq = ref 0 in
  let mem = Pdb_kvs.Memtable.create () in
  let wal_report = ref None in
  (match Manifest.recover env ~dir with
   | Some (_, edits) ->
     List.iter
       (apply_edit ~l0 ~levels ~committed ~wal_number ~next_file ~last_seq)
       edits;
     (* L0 newest-first (descending file number) *)
     l0 :=
       List.sort
         (fun (a : Table.meta) (b : Table.meta) ->
           Int.compare b.Table.number a.Table.number)
         !l0;
     (* replay WAL into the memtable; the old log is deleted only after
        its records are durable in the fresh WAL and the fresh MANIFEST
        is installed (see below) *)
     let name = log_name dir !wal_number in
     if Env.exists env name then begin
       let records, report = Wal.Reader.read_all env name in
       let rejected = ref 0 and rejected_bytes = ref 0 in
       List.iter
         (fun record ->
           match Pdb_kvs.Write_batch.decode record with
           | exception Invalid_argument _ ->
             (* well-framed record, undecodable batch: count it, never
                silently skip it *)
             incr rejected;
             rejected_bytes := !rejected_bytes + String.length record
           | batch, base_seq ->
             let seq = ref base_seq in
             Pdb_kvs.Write_batch.iter batch (fun op ->
                 (match op with
                  | Pdb_kvs.Write_batch.Put (k, v) ->
                    Pdb_kvs.Memtable.add mem ~seq:!seq ~kind:Ik.Value
                      ~user_key:k ~value:v
                  | Pdb_kvs.Write_batch.Delete k ->
                    Pdb_kvs.Memtable.add mem ~seq:!seq ~kind:Ik.Deletion
                      ~user_key:k ~value:"");
                 incr seq);
             last_seq := max !last_seq (!seq - 1))
         records;
       wal_report := Some (report, !rejected, !rejected_bytes)
     end
   | None -> ());
  let new_log = !next_file in
  incr next_file;
  let manifest_number = !next_file in
  incr next_file;
  let wal = Wal.Writer.create env (log_name dir new_log) in
  relog_memtable wal mem;
  let snap =
    snapshot_edit ~opts ~l0:!l0 ~levels ~log_number:new_log
      ~next_file:!next_file ~last_seq:!last_seq
  in
  let t =
    {
      opts;
      policy = Policy.of_options opts;
      env;
      dir;
      clock = Env.clock env;
      sched =
        Scheduler.create ~env ~clock:(Env.clock env)
          ~flush_lanes:(if opts.O.flush_reserved_lane then 1 else 0)
          ~workers:opts.O.compaction_threads ();
      bp = Bp.create opts;
      stats = Stats.create ();
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
      manifest = Manifest.create env ~dir ~number:manifest_number
          ~edits:[ snap ];
      next_file = !next_file;
      last_seq = !last_seq;
      l0 = !l0;
      levels;
      committed;
      uncommitted = Array.init opts.O.max_levels (fun _ -> Hashtbl.create 64);
      consecutive_seeks = 0;
      obsolete = [];
      snapshots = Pdb_kvs.Snapshots.create ();
      closed = false;
    }
  in
  (* Re-derive pending guard selections: a guard committed at level i is by
     construction selected at every deeper level; deeper levels that have
     not committed it yet must carry it as uncommitted again. *)
  for level = 1 to last_level t - 1 do
    Hashtbl.iter
      (fun k () ->
        for deeper = level + 1 to last_level t do
          if not (Hashtbl.mem t.committed.(deeper) k) then
            Hashtbl.replace t.uncommitted.(deeper) k ()
        done)
      t.committed.(level)
  done;
  (match !wal_report with
   | Some ((r : Wal.Reader.report), rejected, rejected_bytes) ->
     t.stats.Stats.wal_records_recovered <-
       r.Wal.Reader.records_read - rejected;
     t.stats.Stats.wal_bytes_dropped <-
       r.Wal.Reader.bytes_dropped + rejected_bytes;
     t.stats.Stats.wal_batches_rejected <- rejected
   | None -> ());
  (* the fresh MANIFEST is installed and the fresh WAL holds every
     recovered record: the crashed incarnation's files are now garbage *)
  Manifest.cleanup_stale env ~dir ~live_log_number:new_log
    ~live_manifest:(Manifest.file_name t.manifest);
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
let block_cache t = t.block_cache
let table_cache t = t.table_cache

(* mirror the scheduler's counters into the engine stats on read *)
let stats t =
  let st = t.stats in
  let s = Scheduler.stats t.sched in
  st.Stats.compaction_jobs <- s.Scheduler.jobs_run;
  st.Stats.compaction_queue_peak <- s.Scheduler.queue_peak;
  st.Stats.compaction_backlog_peak_bytes <- s.Scheduler.backlog_peak_bytes;
  st.Stats.compaction_serialized_jobs <- Scheduler.serialized_jobs t.sched;
  st.Stats.compaction_pending <- Scheduler.pending t.sched;
  st.Stats.compaction_backlog_bytes <- Scheduler.backlog_bytes t.sched;
  st.Stats.stall_slowdown_ns <- s.Scheduler.stall_slowdown_ns;
  st.Stats.stall_stop_ns <- s.Scheduler.stall_stop_ns;
  st.Stats.worker_busy_ns <- Scheduler.busy_ns t.sched;
  st.Stats.flush_busy_ns <- Scheduler.flush_busy_ns t.sched;
  st.Stats.compaction_by_trigger <- (Scheduler.stats t.sched).Scheduler.by_trigger;
  st.Stats.block_cache_hits <- Pdb_sstable.Block_cache.hits t.block_cache;
  st.Stats.block_cache_misses <- Pdb_sstable.Block_cache.misses t.block_cache;
  st.Stats.table_cache_hits <- Pdb_sstable.Table_cache.hits t.table_cache;
  st.Stats.table_cache_misses <- Pdb_sstable.Table_cache.misses t.table_cache;
  st.Stats.summary_hits <- Pdb_sstable.Table_cache.summary_hits t.table_cache;
  st.Stats.summary_misses <-
    Pdb_sstable.Table_cache.summary_misses t.table_cache;
  st

(* ---------- writes ---------- *)

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
              Bp.l0_files = List.length t.l0;
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
            t.stats.Stats.write_stalls <- t.stats.Stats.write_stalls + 1
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
          let seq = ref base_seq in
          Pdb_kvs.Write_batch.iter batch (fun op ->
              charge_cpu t t.opts.O.cpu_memtable_op_ns;
              (match op with
               | Pdb_kvs.Write_batch.Put (k, v) ->
                 note_guard_candidate t k;
                 Pdb_kvs.Memtable.add t.mem ~seq:!seq ~kind:Ik.Value
                   ~user_key:k ~value:v
               | Pdb_kvs.Write_batch.Delete k ->
                 Pdb_kvs.Memtable.add t.mem ~seq:!seq ~kind:Ik.Deletion
                   ~user_key:k ~value:"");
              incr seq);
          t.stats.Stats.user_bytes_written <-
            t.stats.Stats.user_bytes_written
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
  t.stats.Stats.puts <- t.stats.Stats.puts + 1;
  let b = Pdb_kvs.Write_batch.create () in
  Pdb_kvs.Write_batch.put b k v;
  write t b

let delete t k =
  t.stats.Stats.deletes <- t.stats.Stats.deletes + 1;
  let b = Pdb_kvs.Write_batch.create () in
  Pdb_kvs.Write_batch.delete b k;
  write t b

let flush t = flush_memtable t

(* ---------- snapshots ---------- *)

(** [snapshot t] pins the current state; reads and iterators through the
    returned sequence number see exactly the versions visible now.
    Compaction keeps whatever pinned snapshots still need; superseded files
    stay on storage until the last snapshot is released. *)
let snapshot t =
  Pdb_kvs.Snapshots.acquire t.snapshots t.last_seq;
  t.last_seq

(** [release_snapshot t s] unpins [s] (idempotence is the caller's
    responsibility: release exactly once per acquire). *)
let release_snapshot t s = Pdb_kvs.Snapshots.release t.snapshots s

(* ---------- reads (§3.4 Get, §4.1) ---------- *)

(* [lookup] is the get's seek key (built once per get, for its snapshot
   or the latest state) and [h1]/[h2] the key's bloom hashes. *)
let table_lookup t (meta : Table.meta) key ~lookup ~h1 ~h2 =
  (* inside a probe session (multi-table get) each lookup's device time is
     measured so independent table probes overlap up to the budget *)
  Pdb_simio.Probe.measure t.probe (fun () ->
      charge_cpu t t.opts.O.cpu_per_sstable_ns;
      t.stats.Stats.sstables_examined <- t.stats.Stats.sstables_examined + 1;
      let reader = Pdb_sstable.Table_cache.find t.table_cache meta in
      let pass_bloom =
        if Table.has_filter reader then begin
          charge_cpu t t.opts.O.cpu_bloom_check_ns;
          t.stats.Stats.bloom_checks <- t.stats.Stats.bloom_checks + 1;
          let pass = Table.may_contain_hashed reader h1 h2 in
          if not pass then
            t.stats.Stats.bloom_negative <- t.stats.Stats.bloom_negative + 1;
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
  t.stats.Stats.gets <- t.stats.Stats.gets + 1;
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
    (* the candidate tables of one lookup are independent random reads:
       bracket them in a probe session so they overlap up to the budget *)
    Pdb_simio.Probe.with_session t.probe ~label:"get" (fun () ->
        let result = ref `NotFound in
        let probe (m : Table.meta) =
          if not_found !result && user_range_overlap m key then
            match table_lookup t m key ~lookup ~h1 ~h2 with
            | Some (Ik.Value, v) -> result := `Found v
            | Some (Ik.Deletion, _) -> result := `Deleted
            | None -> ()
        in
        (* L0: newest first *)
        List.iter probe t.l0;
        (* one guard per deeper level; tables newest first *)
        let level = ref 1 in
        while not_found !result && !level <= last_level t do
          let lvl = t.levels.(!level) in
          charge_cpu t t.opts.O.cpu_per_block_search_ns
            (* guard binary search *);
          let gi = Guard.guard_index lvl key in
          List.iter probe lvl.Guard.guards.(gi).Guard.tables;
          incr level
        done;
        match !result with `Found v -> Some v | `Deleted | `NotFound -> None)

(* ---------- iterators (§3.4 Range Queries, §4.2) ---------- *)

(* [upper_user] is the iterator's inclusive user-key bound: it licenses the
   seek filter to skip tables past it, and {!iterator} clamps the merged
   output so skipped tables are unobservable. *)
let internal_iterator ?upper_user t =
  let on_table () =
    charge_cpu t t.opts.O.cpu_per_sstable_ns;
    t.stats.Stats.sstables_examined <- t.stats.Stats.sstables_examined + 1
  in
  let filter =
    Pdb_sstable.Seek_filter.create ?upper_user
      ~filtering:t.opts.O.seek_filtering
      ~peek:(Pdb_sstable.Table_cache.peek t.table_cache)
      ~on_check:(fun ~skipped ->
        t.stats.Stats.seek_bloom_checks <- t.stats.Stats.seek_bloom_checks + 1;
        if skipped then
          t.stats.Stats.seek_bloom_skips <- t.stats.Stats.seek_bloom_skips + 1)
      ()
  in
  (* L0 tables overlap arbitrarily, so every seek probes all of them:
     lazy filtered wrappers skip the provably-disjoint ones and measure
     the rest for the probe session *)
  let l0_iters =
    List.map
      (fun m ->
        let it =
          Pdb_sstable.Seek_filter.table_iterator filter ~cache:t.table_cache
            ~block_cache:t.block_cache ~hint:Device.Random_read ~on_table m
        in
        {
          it with
          Iter.seek =
            (fun k ->
              Pdb_simio.Probe.measure t.probe (fun () -> it.Iter.seek k));
          seek_to_first =
            (fun () ->
              Pdb_simio.Probe.measure t.probe (fun () ->
                  it.Iter.seek_to_first ()));
        })
      t.l0
  in
  let level_iters =
    List.init (last_level t) (fun i ->
        let level = i + 1 in
        Flsm_level_iter.create ~filter ~probe:t.probe
          ~level:t.levels.(level) ~cache:t.table_cache
          ~block_cache:t.block_cache ~hint:Device.Random_read ~on_table ())
  in
  Pdb_kvs.Merging_iter.create ~compare:Ik.compare
    ((Pdb_kvs.Memtable.iterator t.mem :: l0_iters) @ level_iters)

let note_seek t =
  t.stats.Stats.seeks <- t.stats.Stats.seeks + 1;
  charge_cpu t (t.opts.O.op_overhead_read_ns +. t.opts.O.cpu_per_op_ns);
  if t.opts.O.seek_based_compaction then begin
    t.consecutive_seeks <- t.consecutive_seeks + 1;
    if t.consecutive_seeks >= t.opts.O.seek_compaction_threshold then begin
      t.consecutive_seeks <- 0;
      seek_compaction t
    end
  end

let iterator ?snapshot ?upper_bound t =
  assert (not t.closed);
  gc_obsolete t;
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
        t.stats.Stats.nexts <- t.stats.Stats.nexts + 1;
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

(* Drive pending work to quiescence.  Note this deliberately does NOT force
   everything into one level: PebblesDB "does not compact as aggressively
   as other key-value stores as it seeks to minimize write IO" (§5.2), so
   its fully-compacted state still has multiple sstables per guard. *)
let compact_all t =
  flush_memtable t;
  if t.l0 <> [] then
    Scheduler.run_now t.sched
      {
        Job.key = "manual:l0";
        trigger = Job.Manual;
        estimated_bytes =
          List.fold_left
            (fun a (m : Table.meta) -> a + m.Table.file_size)
            0 t.l0;
        footprint = Sched.full_range ~level_lo:0 ~level_hi:1;
        run = (fun () -> compact_level t 0);
      };
  maybe_compact t;
  gc_obsolete t

(* PebblesDB keeps every sstable's bloom filter (and effectively its index)
   resident in memory — the memory overhead Table 5.4 quantifies and §7
   proposes to optimise.  The LSM baselines construct filters lazily on
   first access, so their footprint is the table cache's residents. *)
let memory_bytes t =
  let guard_meta =
    let sum = ref 0 in
    for level = 1 to last_level t do
      sum := !sum + Guard.metadata_bytes t.levels.(level)
    done;
    !sum
  in
  let filters_and_indexes =
    (* prefer the actual decoded footprint (open reader or summary) over
       the bits-per-key estimate: the estimate drifts from reality when
       tables are smaller than sstable_target_bytes or carry prefix
       probes, and stats should not disagree with the cache's own
       accounting *)
    let per_file (m : Table.meta) =
      match Pdb_sstable.Table_cache.known_resident_bytes t.table_cache m with
      | Some b -> b
      | None ->
        (m.Table.entries * t.opts.O.bloom_bits_per_key / 8)
        + (((m.Table.file_size / t.opts.O.block_bytes) + 1) * 24)
    in
    let sum = ref 0 in
    List.iter (fun m -> sum := !sum + per_file m) t.l0;
    for level = 1 to last_level t do
      List.iter
        (fun m -> sum := !sum + per_file m)
        (Guard.all_tables t.levels.(level))
    done;
    !sum
  in
  Pdb_kvs.Memtable.approximate_bytes t.mem
  + Pdb_sstable.Block_cache.used t.block_cache
  + filters_and_indexes + guard_meta

let refresh_empty_guard_stat t =
  let n = ref 0 in
  for level = 1 to last_level t do
    n := !n + Guard.empty_guard_count t.levels.(level)
  done;
  t.stats.Stats.guards_empty <- !n

let describe t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "pebblesdb store (%s)\n" t.opts.O.name);
  Buffer.add_string buf
    (Printf.sprintf "  level 0 (no guards): %d sstables\n" (List.length t.l0));
  List.iter
    (fun (m : Table.meta) ->
      Buffer.add_string buf
        (Printf.sprintf "    #%d [%s .. %s] %dB\n" m.Table.number
           (Ik.user_key m.Table.smallest)
           (Ik.user_key m.Table.largest)
           m.Table.file_size))
    t.l0;
  for level = 1 to last_level t do
    let lvl = t.levels.(level) in
    if Guard.table_count lvl > 0 || Guard.guard_count lvl > 0 then begin
      Buffer.add_string buf
        (Printf.sprintf "  level %d (%d guards, %d sstables, %dB):\n" level
           (Guard.guard_count lvl) (Guard.table_count lvl) (Guard.bytes lvl));
      Array.iter
        (fun (g : Guard.guard) ->
          if g.Guard.tables <> [] then begin
            Buffer.add_string buf
              (Printf.sprintf "    guard %s:\n"
                 (if g.Guard.gkey = "" then "<sentinel>" else g.Guard.gkey));
            List.iter
              (fun (m : Table.meta) ->
                Buffer.add_string buf
                  (Printf.sprintf "      #%d [%s .. %s] %dB\n" m.Table.number
                     (Ik.user_key m.Table.smallest)
                     (Ik.user_key m.Table.largest)
                     m.Table.file_size))
              g.Guard.tables
          end)
        lvl.Guard.guards
    end
  done;
  Buffer.contents buf

let check_invariants t =
  (* L0 newest-first *)
  let rec check_l0 = function
    | (a : Table.meta) :: (b : Table.meta) :: rest ->
      if a.Table.number <= b.Table.number then
        failwith "flsm invariant: L0 not newest-first";
      check_l0 (b :: rest)
    | [ _ ] | [] -> ()
  in
  check_l0 t.l0;
  for level = 1 to last_level t do
    let lvl = t.levels.(level) in
    let g = lvl.Guard.guards in
    if Array.length g = 0 || g.(0).Guard.gkey <> "" then
      failwith "flsm invariant: missing sentinel guard";
    (* strictly ascending guard keys *)
    for i = 1 to Array.length g - 2 do
      if String.compare g.(i).Guard.gkey g.(i + 1).Guard.gkey >= 0 then
        failwith "flsm invariant: guard keys not ascending"
    done;
    (* skip-list property: a guard committed here is at least *selected*
       (committed or uncommitted) at every deeper level — deeper levels
       commit lazily, at their own next compaction (§3.3) *)
    if level < last_level t then
      Array.iter
        (fun (gu : Guard.guard) ->
          if
            gu.Guard.gkey <> ""
            && (not (Hashtbl.mem t.committed.(level + 1) gu.Guard.gkey))
            && not (Hashtbl.mem t.uncommitted.(level + 1) gu.Guard.gkey)
          then failwith "flsm invariant: guard not selected in deeper level")
        g;
    (* every table fits inside its guard; files exist *)
    Array.iteri
      (fun i (gu : Guard.guard) ->
        List.iter
          (fun (m : Table.meta) ->
            if not (Guard.table_fits lvl i m) then
              failwith
                (Printf.sprintf
                   "flsm invariant: table #%d straddles guard at level %d"
                   m.Table.number level);
            if
              not (Env.exists t.env (Table.file_name ~dir:t.dir m.Table.number))
            then failwith "flsm invariant: missing sstable file")
          gu.Guard.tables)
      g;
    (* committed set matches structure *)
    Array.iter
      (fun (gu : Guard.guard) ->
        if gu.Guard.gkey <> "" && not (Hashtbl.mem t.committed.(level) gu.Guard.gkey)
        then failwith "flsm invariant: structure guard missing from committed set")
      g;
    (* no guard both committed and uncommitted *)
    Hashtbl.iter
      (fun k () ->
        if Hashtbl.mem t.committed.(level) k then
          failwith "flsm invariant: guard both committed and uncommitted")
      t.uncommitted.(level)
  done

(* ---------- guard deletion (§3.3, §7) ---------- *)

(** [delete_empty_guards t] removes every guard that is empty at *every*
    level where it is committed, folding its (empty) range into the
    predecessor guard and persisting the deletions — the metadata cleanup
    the paper describes as asynchronous guard deletion (§3.3) and lists as
    future work for its own implementation (§4.4, §7).  Returns the number
    of guard keys removed.

    Deleting a guard at level [i] requires deleting it at every level
    < [i] (the skip-list property); removing only globally-empty guards
    satisfies this trivially. *)
let delete_empty_guards t =
  (* a guard key is removable iff every level where it is committed holds
     no sstables under it *)
  let removable = Hashtbl.create 16 in
  for level = 1 to last_level t do
    Array.iter
      (fun (g : Guard.guard) ->
        if g.Guard.gkey <> "" then
          match Hashtbl.find_opt removable g.Guard.gkey with
          | Some false -> ()
          | _ -> Hashtbl.replace removable g.Guard.gkey (g.Guard.tables = []))
      t.levels.(level).Guard.guards
  done;
  let doomed =
    Hashtbl.fold (fun k ok acc -> if ok then k :: acc else acc) removable []
  in
  if doomed <> [] then begin
    let edit_entries = ref [] in
    List.iter
      (fun key ->
        for level = 1 to last_level t do
          if Hashtbl.mem t.committed.(level) key then begin
            Guard.delete_guard t.levels.(level) key;
            Hashtbl.remove t.committed.(level) key;
            edit_entries := (level, key) :: !edit_entries
          end;
          (* forget any pending selection so the guard is not immediately
             re-committed *)
          Hashtbl.remove t.uncommitted.(level) key
        done)
      doomed;
    let e = Manifest.empty_edit () in
    e.Manifest.deleted_guards <- List.rev !edit_entries;
    Manifest.append t.manifest e
  end;
  List.length doomed

(* exposed for tests and experiments *)
let l0_table_count t = List.length t.l0

let guard_counts t =
  Array.init t.opts.O.max_levels (fun level ->
      if level = 0 then 0 else Guard.guard_count t.levels.(level))

let empty_guard_count t =
  refresh_empty_guard_stat t;
  t.stats.Stats.guards_empty

let sstable_metas t =
  t.l0
  @ List.concat
      (List.init (last_level t) (fun i -> Guard.all_tables t.levels.(i + 1)))

let level_sizes t =
  Array.init t.opts.O.max_levels (fun level ->
      if level = 0 then
        List.fold_left (fun a (m : Table.meta) -> a + m.Table.file_size) 0 t.l0
      else Guard.bytes t.levels.(level))

let max_tables_in_any_guard t =
  let worst = ref 0 in
  for level = 1 to last_level t do
    Array.iter
      (fun (g : Guard.guard) ->
        worst := max !worst (List.length g.Guard.tables))
      t.levels.(level).Guard.guards
  done;
  !worst
