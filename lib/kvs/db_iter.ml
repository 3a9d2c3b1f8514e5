(** Database iterator: turns a merged internal-key iterator into a user-key
    iterator, hiding tombstones and superseded versions (§2.2: "the latest
    version of the flag will be returned by the store").

    The internal iterator must yield entries in internal-key order (user
    key ascending, sequence descending), so the first entry seen for a user
    key is its freshest version. *)

(** [wrap ?snapshot internal] exposes the user-visible view at [snapshot]
    (a sequence number; entries newer than it are invisible) or, without
    it, the latest state. *)
let wrap ?snapshot (internal : Iter.t) =
  let visible ikey =
    match snapshot with
    | None -> true
    | Some seq -> Internal_key.seq ikey <= seq
  in
  (* Current exposed entry. *)
  let cur = ref None in
  (* Advance [internal] until it rests on the freshest live *visible*
     version of a user key not equal to [skip]. *)
  let rec find_next_user_entry skip =
    if not (internal.Iter.valid ()) then cur := None
    else begin
      let ikey = internal.Iter.key () in
      let uk = Internal_key.user_key ikey in
      match skip with
      | Some s when String.equal s uk ->
        internal.Iter.next ();
        find_next_user_entry skip
      | _ ->
        if not (visible ikey) then begin
          internal.Iter.next ();
          find_next_user_entry skip
        end
        else (
          match Internal_key.kind ikey with
          | Internal_key.Deletion ->
            internal.Iter.next ();
            find_next_user_entry (Some uk)
          | Internal_key.Value -> cur := Some (uk, internal.Iter.value ()))
    end
  in
  let entry () =
    match !cur with
    | Some e -> e
    | None -> invalid_arg "Db_iter: iterator is not valid"
  in
  let value () = snd (entry ()) in
  {
    Iter.seek_to_first =
      (fun () ->
        internal.Iter.seek_to_first ();
        find_next_user_entry None);
    seek =
      (fun user_key ->
        internal.Iter.seek (Internal_key.max_for_lookup user_key);
        find_next_user_entry None);
    next =
      (fun () ->
        match !cur with
        | None -> ()
        | Some (uk, _) ->
          internal.Iter.next ();
          find_next_user_entry (Some uk));
    valid = (fun () -> Option.is_some !cur);
    key = (fun () -> fst (entry ()));
    value;
    value_slice = Iter.slice_of_value value;
  }
