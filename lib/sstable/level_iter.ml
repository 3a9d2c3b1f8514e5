(** Concatenating iterator over a sorted run of disjoint tables (one LSM
    level >= 1).  Tables are opened lazily through the table cache, so a
    seek touches exactly one table.

    With a {!Seek_filter} attached, member tables the filter proves
    disjoint from the probe range are never opened: a bounded scan stops
    opening successors past its upper bound, and a prefix-bounded seek
    skips tables whose prefix bloom certifies the prefix absent.  With a
    {!Pdb_simio.Probe} context, each table positioning is measured so an
    enclosing probe session can overlap it against the device's budget. *)

(* [on_table] is called whenever a table is positioned, letting engines
   charge modeled CPU per sstable examined. *)
let create ?(filter = Seek_filter.none) ?probe ~cache ~block_cache ~hint
    ~on_table (files : Table.meta array) =
  let n = Array.length files in
  let idx = ref n (* invalid *) in
  let table_it = ref None in
  let measure f =
    match probe with Some ctx -> Pdb_simio.Probe.measure ctx f | None -> f ()
  in
  let open_at i ~position =
    idx := i;
    if i >= 0 && i < n then
      measure (fun () ->
        let reader = Table_cache.find cache files.(i) in
        let it = Table.iterator reader ~cache:block_cache ~hint in
        on_table ();
        position it;
        table_it := Some it)
    else table_it := None
  in
  (* first file at-or-after [i] surviving the filter; [n] if none *)
  let rec surviving i target =
    if i >= n then n
    else
      let skip =
        match target with
        | Some tgt -> Seek_filter.skip_seek filter files.(i) ~target:tgt
        | None -> Seek_filter.skip_first filter files.(i)
      in
      if skip then surviving (i + 1) target else i
  in
  let skip_exhausted () =
    let rec go () =
      match !table_it with
      | Some it when not (it.Pdb_kvs.Iter.valid ()) ->
        let j = surviving (!idx + 1) None in
        if j < n then begin
          open_at j ~position:(fun it2 -> it2.Pdb_kvs.Iter.seek_to_first ());
          go ()
        end
        else table_it := None
      | Some _ | None -> ()
    in
    go ()
  in
  let current () =
    match !table_it with
    | Some it when it.Pdb_kvs.Iter.valid () -> Some it
    | Some _ | None -> None
  in
  (* first table whose largest key is >= target *)
  let find_file target =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Pdb_kvs.Internal_key.compare files.(mid).Table.largest target < 0
      then lo := mid + 1
      else hi := mid
    done;
    !lo
  in
  {
    Pdb_kvs.Iter.seek_to_first =
      (fun () ->
        let i = surviving 0 None in
        if i >= n then table_it := None
        else begin
          open_at i ~position:(fun it -> it.Pdb_kvs.Iter.seek_to_first ());
          skip_exhausted ()
        end);
    seek =
      (fun target ->
        let i = surviving (find_file target) (Some target) in
        if i >= n then table_it := None
        else begin
          open_at i ~position:(fun it -> it.Pdb_kvs.Iter.seek target);
          skip_exhausted ()
        end);
    next =
      (fun () ->
        (match current () with
         | Some it -> it.Pdb_kvs.Iter.next ()
         | None -> ());
        skip_exhausted ());
    valid = (fun () -> Option.is_some (current ()));
    key =
      (fun () ->
        match current () with
        | Some it -> it.Pdb_kvs.Iter.key ()
        | None -> invalid_arg "Level_iter: iterator is not valid");
    value =
      (fun () ->
        match current () with
        | Some it -> it.Pdb_kvs.Iter.value ()
        | None -> invalid_arg "Level_iter: iterator is not valid");
    value_slice =
      (fun sl ->
        match current () with
        | Some it -> it.Pdb_kvs.Iter.value_slice sl
        | None -> invalid_arg "Level_iter: iterator is not valid");
  }
