(** Guards: the organising structure of the Fragmented LSM (§3.1).

    A guard [G_i] with key [K_i] owns every sstable whose keys fall in
    [K_i, K_{i+1}).  Guards within a level never overlap, but the sstables
    *inside* a guard may — that is the relaxation of the classical LSM
    invariant that lets FLSM append compaction output instead of rewriting
    it.  Each level's guard array starts with the sentinel guard (key "")
    that owns keys smaller than the first real guard.

    Structural invariants maintained here and checked by
    {!Pebbles_store.check_invariants}:
    - [guards.(0)] is the sentinel; keys strictly ascend across the array;
    - every table attached to a guard lies entirely inside the guard's
      range (no straddlers — enforced at compaction/commit time);
    - tables are listed newest-first, so a get() can stop at the first
      bloom-confirmed hit. *)

module Ik = Pdb_kvs.Internal_key
module Table = Pdb_sstable.Table

type guard = {
  gkey : string; (* user key; "" for the sentinel *)
  mutable tables : Table.meta list; (* newest first *)
}

type level = {
  mutable guards : guard array;
  mutable next_nonempty : int array;
      (* [next_nonempty.(i)]: the first guard [>= i] holding tables, or the
         guard count; [[||]] while stale.  Every mutation below resets it. *)
}

let sentinel () = { gkey = ""; tables = [] }

let create_level () = { guards = [| sentinel () |]; next_nonempty = [||] }

let invalidate level = level.next_nonempty <- [||]

(** [next_nonempty level i] is the first guard index [>= i] whose guard
    holds tables, or [Array.length level.guards] when none does — a scan
    hops over runs of empty guards in one step.  The index is rebuilt
    after any mutation of the level. *)
let next_nonempty level i =
  let n = Array.length level.guards in
  if Array.length level.next_nonempty <> n + 1 then begin
    let next = Array.make (n + 1) n in
    for j = n - 1 downto 0 do
      next.(j) <- (if level.guards.(j).tables <> [] then j else next.(j + 1))
    done;
    level.next_nonempty <- next
  end;
  level.next_nonempty.(i)

(** [guard_index level key] is the index of the guard owning user [key]:
    the last guard whose key is <= [key] (always >= 0 thanks to the
    sentinel). *)
let guard_index level key =
  let g = level.guards in
  let lo = ref 0 and hi = ref (Array.length g - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if String.compare g.(mid).gkey key <= 0 then lo := mid else hi := mid - 1
  done;
  !lo

(** [guard_range level i] is the key range [lo, hi) of guard [i]; [hi] is
    [None] for the last guard. *)
let guard_range level i =
  let g = level.guards in
  let hi = if i + 1 < Array.length g then Some g.(i + 1).gkey else None in
  (g.(i).gkey, hi)

(** [table_fits level i (m : Table.meta)] tests whether [m]'s user-key range
    lies entirely inside guard [i]. *)
let table_fits level i (m : Table.meta) =
  let lo, hi = guard_range level i in
  let s = Ik.user_key m.Table.smallest and l = Ik.user_key m.Table.largest in
  String.compare lo s <= 0
  && (match hi with None -> true | Some h -> String.compare l h < 0)

(** [straddles level key (m : Table.meta)] is true when [m]'s range contains
    keys both < [key] and >= [key] — such a table must be compacted away
    before [key] can become a guard of this level. *)
let straddles key (m : Table.meta) =
  String.compare (Ik.user_key m.Table.smallest) key < 0
  && String.compare (Ik.user_key m.Table.largest) key >= 0

(** [attach level m] prepends table [m] to its guard (newest first).
    Asserts the no-straddler invariant. *)
let attach level (m : Table.meta) =
  let i = guard_index level (Ik.user_key m.Table.smallest) in
  assert (table_fits level i m);
  invalidate level;
  level.guards.(i).tables <- m :: level.guards.(i).tables

(** [detach level numbers] removes the tables whose file numbers are in
    [numbers] from every guard. *)
let detach level numbers =
  invalidate level;
  Array.iter
    (fun g ->
      g.tables <-
        List.filter
          (fun (m : Table.meta) -> not (List.mem m.Table.number numbers))
          g.tables)
    level.guards

(** [commit_guards level keys] splices new guard [keys] into the level,
    redistributing each affected guard's tables (which, after straddler
    removal, each fit wholly on one side of every new key). *)
let commit_guards level keys =
  let keys =
    List.sort_uniq String.compare
      (List.filter
         (fun k ->
           k <> ""
           && not
                (Array.exists (fun g -> String.equal g.gkey k) level.guards))
         keys)
  in
  if keys <> [] then begin
    let all_tables =
      Array.to_list level.guards |> List.concat_map (fun g -> g.tables)
    in
    let merged_keys =
      List.sort_uniq String.compare
        (keys
         @ (Array.to_list level.guards
            |> List.filter_map (fun g ->
                   if g.gkey = "" then None else Some g.gkey)))
    in
    let guards =
      Array.of_list
        (sentinel () :: List.map (fun k -> { gkey = k; tables = [] }) merged_keys)
    in
    level.guards <- guards;
    invalidate level;
    (* reattach preserving newest-first order *)
    List.iter
      (fun m ->
        let i = guard_index level (Ik.user_key m.Table.smallest) in
        if not (table_fits level i m) then
          failwith "Guard.commit_guards: straddling table";
        guards.(i).tables <- m :: guards.(i).tables)
      (List.rev all_tables)
  end

(** [delete_guard level key] removes guard [key], folding its tables into
    the preceding guard (asynchronous guard deletion, §3.3). *)
let delete_guard level key =
  match
    Array.to_list level.guards
    |> List.partition (fun g -> String.equal g.gkey key)
  with
  | [], _ -> ()
  | doomed, kept ->
    let kept = Array.of_list kept in
    let orphans = List.concat_map (fun g -> g.tables) doomed in
    level.guards <- kept;
    invalidate level;
    (* predecessor guard absorbs the orphans (ranges stay sorted since the
       predecessor's range now extends to the next remaining guard) *)
    List.iter
      (fun m ->
        let i = guard_index level (Ik.user_key m.Table.smallest) in
        kept.(i).tables <- m :: kept.(i).tables)
      (List.rev orphans)

let all_tables level =
  Array.to_list level.guards |> List.concat_map (fun g -> g.tables)

let table_count level =
  Array.fold_left (fun acc g -> acc + List.length g.tables) 0 level.guards

let bytes level =
  Array.fold_left
    (fun acc g ->
      acc
      + List.fold_left
          (fun a (m : Table.meta) -> a + m.Table.file_size)
          0 g.tables)
    0 level.guards

let guard_count level = Array.length level.guards - 1 (* excluding sentinel *)

let empty_guard_count level =
  Array.fold_left
    (fun acc g -> if g.gkey <> "" && g.tables = [] then acc + 1 else acc)
    0 level.guards

(** Modeled in-memory footprint of the guard metadata (Table 5.4). *)
let metadata_bytes level =
  Array.fold_left
    (fun acc g ->
      acc + String.length g.gkey + 48 + (16 * List.length g.tables))
    0 level.guards
