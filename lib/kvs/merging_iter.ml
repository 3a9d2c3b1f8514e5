(** K-way merging iterator.

    Both LSM and FLSM database iterators are implemented "via merging level
    iterators" (§3.4); in FLSM the level iterators are themselves merges of
    the sstable iterators inside the guard of interest.  The merge yields
    the smallest current key among children by the supplied comparator;
    ties are broken by child index, so callers must order children
    newest-first when duplicate keys across children are possible.

    The valid children sit in a binary min-heap ordered by (cached current
    key, child index), so a step costs O(log k) comparisons and touches
    only the child it advances. *)

let create ?(positioned = false) ~compare children =
  let children = Array.of_list children in
  let n = Array.length children in
  (* [keys.(i)] caches child [i]'s current key while [i] is in the heap *)
  let keys = Array.make n "" in
  (* [heap.(0 .. !size - 1)] holds the valid children's indices *)
  let heap = Array.make n 0 in
  let size = ref 0 in
  let before i j =
    let c = compare keys.(i) keys.(j) in
    c < 0 || (c = 0 && i < j)
  in
  (* Move child [i] down from slot [pos] to where it belongs. *)
  let rec sift_down i pos =
    let l = (2 * pos) + 1 in
    if l >= !size then heap.(pos) <- i
    else begin
      let r = l + 1 in
      let c = if r < !size && before heap.(r) heap.(l) then r else l in
      if before heap.(c) i then begin
        heap.(pos) <- heap.(c);
        sift_down i c
      end
      else heap.(pos) <- i
    end
  in
  let rebuild () =
    size := 0;
    for i = 0 to n - 1 do
      let it : Iter.t = children.(i) in
      if it.valid () then begin
        keys.(i) <- it.key ();
        heap.(!size) <- i;
        incr size
      end
    done;
    for pos = (!size / 2) - 1 downto 0 do
      sift_down heap.(pos) pos
    done
  in
  let current () =
    if !size = 0 then invalid_arg "Merging_iter: iterator is not valid"
    else children.(heap.(0))
  in
  (* [positioned] children were already individually sought by the caller
     (e.g. measured parallel seeks); adopt their positions directly. *)
  if positioned then rebuild ();
  {
    Iter.seek_to_first =
      (fun () ->
        Array.iter (fun (it : Iter.t) -> it.seek_to_first ()) children;
        rebuild ());
    seek =
      (fun target ->
        Array.iter (fun (it : Iter.t) -> it.seek target) children;
        rebuild ());
    next =
      (fun () ->
        let it = current () in
        let i = heap.(0) in
        it.next ();
        if it.valid () then begin
          keys.(i) <- it.key ();
          sift_down i 0
        end
        else begin
          (* the last slot's child takes the vacated root *)
          keys.(i) <- "";
          decr size;
          if !size > 0 then sift_down heap.(!size) 0
        end);
    valid = (fun () -> !size > 0);
    key =
      (fun () ->
        ignore (current ());
        keys.(heap.(0)));
    value = (fun () -> (current ()).value ());
    value_slice = (fun sl -> (current ()).value_slice sl);
  }
