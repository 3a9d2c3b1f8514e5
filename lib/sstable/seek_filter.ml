(** Read-path table filtering for seeks and bounded scans.

    A multi-table seek (a guard probe, a tiered run, the L0 pile) opens
    and positions every member table even when most provably cannot
    contribute: their key range ends before the target, starts after the
    scan's upper bound, or — for prefix-bounded scans — their prefix bloom
    proves the probed prefix absent.  This module centralises those three
    checks so every level iterator applies the same soundness argument
    (DESIGN.md "Read path").

    Soundness: a table is skipped only when the check proves it disjoint
    from the probe range [target, upper]:
    - [largest < target] — every entry sorts before the first key any
      consumer of the positioned iterator can observe;
    - [user_key smallest > upper] — every entry sorts after the last key
      the (upper-clamped) engine iterator will yield;
    - prefix bloom — when [target] and [upper] share a full
      [prefix_bloom_len]-byte prefix, every user key in [target, upper]
      carries that prefix, so a filter-certified absent prefix certifies
      the whole range absent.  Bloom filters have no false negatives for
      recorded prefixes, so the certificate is exact.

    Filtering consults only metadata and already-resident readers
    ([peek] must not perform IO to produce one) — skipping a table costs
    nothing and never changes which keys a correct consumer observes. *)

module Ik = Pdb_kvs.Internal_key

type t = {
  filtering : bool;
  upper_user : string option; (* inclusive user-key scan bound *)
  peek : Table.meta -> Table.reader option;
  on_check : skipped:bool -> unit;
}

let create ?upper_user ~filtering ~peek ~on_check () =
  { filtering; upper_user; peek; on_check }

let none =
  {
    filtering = false;
    upper_user = None;
    peek = (fun _ -> None);
    on_check = (fun ~skipped:_ -> ());
  }

let upper_user t = t.upper_user

(* Table entirely above the scan's upper bound. *)
let above_upper t (m : Table.meta) =
  match t.upper_user with
  | None -> false
  | Some up -> Ik.compare_user m.Table.smallest up > 0

(* [a] and [b] agree on bytes [i, n). *)
let rec same_bytes a b i n =
  i >= n || (a.[i] = b.[i] && same_bytes a b (i + 1) n)

(* Prefix-bloom refinement: only meaningful when the whole probe range
   shares the table's full prefix length.  [target] is an internal key;
   its user-key prefix is compared in place, and copied only for the
   filter probe. *)
let prefix_absent t (m : Table.meta) ~target =
  match t.upper_user with
  | None -> false
  | Some up -> (
    match t.peek m with
    | None -> false
    | Some r ->
      let pl = Table.prefix_len r in
      pl > 0
      && String.length target - Ik.trailer_size >= pl
      && String.length up >= pl
      && same_bytes target up 0 pl
      && not (Table.may_contain_prefix r (String.sub target 0 pl)))

(** [skip_seek t m ~target] decides whether a seek to internal key
    [target] may skip table [m] entirely. *)
let skip_seek t (m : Table.meta) ~target =
  if not t.filtering then false
  else begin
    let skipped =
      Ik.compare m.Table.largest target < 0
      || above_upper t m
      || prefix_absent t m ~target
    in
    t.on_check ~skipped;
    skipped
  end

(** [skip_first t m] decides whether a seek-to-first may skip table [m]
    (possible only under an upper bound). *)
let skip_first t (m : Table.meta) =
  if not t.filtering then false
  else begin
    let skipped = above_upper t m in
    t.on_check ~skipped;
    skipped
  end

(** [past_upper t user_key] is [true] once a forward scan has advanced
    beyond the bound — level iterators use it to stop opening successor
    tables. *)
let past_upper t user_key =
  match t.upper_user with
  | None -> false
  | Some up -> String.compare user_key up > 0

(** [table_iterator t ~cache ~block_cache ~hint ~on_table m] is a lazy,
    filtered iterator over one (possibly overlapping) table — the L0 /
    tiered-run member wrapper.  The table is not opened until a
    positioning call survives the filter; a filtered-out positioning
    leaves the iterator invalid, which is sound per the module contract.
    [next] on a never-positioned iterator is a no-op (merging iterators
    only advance children they positioned). *)
let table_iterator t ~cache ~block_cache ~hint ~on_table (m : Table.meta) =
  let it = ref None in
  let force () =
    match !it with
    | Some i -> i
    | None ->
      let reader = Table_cache.find cache m in
      let i = Table.iterator reader ~cache:block_cache ~hint in
      on_table ();
      it := Some i;
      i
  in
  let current () =
    match !it with
    | Some i when i.Pdb_kvs.Iter.valid () -> Some i
    | Some _ | None -> None
  in
  {
    Pdb_kvs.Iter.seek_to_first =
      (fun () ->
        if skip_first t m then it := None
        else (force ()).Pdb_kvs.Iter.seek_to_first ());
    seek =
      (fun target ->
        if skip_seek t m ~target then it := None
        else (force ()).Pdb_kvs.Iter.seek target);
    next =
      (fun () -> match !it with Some i -> i.Pdb_kvs.Iter.next () | None -> ());
    valid = (fun () -> Option.is_some (current ()));
    key =
      (fun () ->
        match current () with
        | Some i -> i.Pdb_kvs.Iter.key ()
        | None -> invalid_arg "Seek_filter.table_iterator: not valid");
    value =
      (fun () ->
        match current () with
        | Some i -> i.Pdb_kvs.Iter.value ()
        | None -> invalid_arg "Seek_filter.table_iterator: not valid");
    value_slice =
      (fun sl ->
        match current () with
        | Some i -> i.Pdb_kvs.Iter.value_slice sl
        | None -> invalid_arg "Seek_filter.table_iterator: not valid");
  }
