(** One level's resident sstables: an immutable array and its byte total.

    A {e leveled} level ([~sorted:true]) keeps its files ascending by
    smallest internal key with disjoint internal-key ranges.  Neighbours
    may share a boundary user key (one file ends with an older version of
    the key the next one starts with), but both the smallest and the
    largest user keys are non-decreasing along the array.  So locating a
    key, finding the files that overlap a user-key range and finding the
    round-robin victim are binary searches with {!Ik.compare_user}, which
    compare in place and build no substring, and installing a
    compaction's outputs is one splice.

    Level 0 and tiered levels ([~sorted:false]) keep newest-first order
    (descending file number) and hold a handful of files; they are
    scanned linearly, in that order.

    A value is never mutated: every change builds a new array, so an
    iterator built over [files] keeps the level it was built on. *)

module Ik = Pdb_kvs.Internal_key
module Table = Pdb_sstable.Table

type t = { files : Table.meta array; bytes : int (** sum of [file_size] *) }

let length t = Array.length t.files
let is_empty t = Array.length t.files = 0

let bytes_of_list =
  List.fold_left (fun a (m : Table.meta) -> a + m.Table.file_size) 0

let sum_bytes files =
  Array.fold_left (fun a (m : Table.meta) -> a + m.Table.file_size) 0 files

let of_array files = { files; bytes = sum_bytes files }

(* ---------- resident order ---------- *)

(** [order ~sorted] is a leveled level's order (by smallest internal key)
    or a newest-first level's (descending file number). *)
let order ~sorted =
  if sorted then fun (a : Table.meta) (b : Table.meta) ->
    Ik.compare a.Table.smallest b.Table.smallest
  else fun (a : Table.meta) (b : Table.meta) ->
    Int.compare b.Table.number a.Table.number

(* ---------- leveled searches ---------- *)

(* The first index at or after [from] whose file [f] has [past f key], or
   [Array.length files]: a binary search, for a [past] that is false and
   then true along the array.  The predicates below close over nothing,
   so a search allocates nothing. *)
let first files ~from key past =
  let lo = ref from and hi = ref (Array.length files) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if past files.(mid) key then hi := mid else lo := mid + 1
  done;
  !lo

let largest_reaches (f : Table.meta) key =
  Ik.compare_user f.Table.largest key >= 0

let largest_past (f : Table.meta) key = Ik.compare_user f.Table.largest key > 0

let smallest_past (f : Table.meta) key =
  Ik.compare_user f.Table.smallest key > 0

let smallest_from (f : Table.meta) ikey = Ik.compare f.Table.smallest ikey >= 0

let reaches_smallest_of (f : Table.meta) (m : Table.meta) =
  Ik.compare_users f.Table.largest m.Table.smallest >= 0

(** [locate files key] is the index of the file of a leveled level whose
    user-key range holds [key], or -1: the first file whose largest user
    key is >= [key], if its smallest is <= [key] — the first overlapping
    file, found in O(log n). *)
let locate (files : Table.meta array) key =
  (* [first files ~from:0 key largest_reaches], written out: this is the
     get's hot path, and a direct comparison beats a call through [past] *)
  let lo = ref 0 and hi = ref (Array.length files) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Ik.compare_user files.(mid).Table.largest key >= 0 then hi := mid
    else lo := mid + 1
  done;
  if !lo < Array.length files && not (smallest_past files.(!lo) key) then !lo
  else -1

(** [overlap_range t ~smallest ~largest] is the run [\[lo, hi)] of a
    leveled level's files whose user-key range meets
    [\[smallest, largest\]]; empty ([lo = hi]) when none does. *)
let overlap_range t ~smallest ~largest =
  let lo = first t.files ~from:0 smallest largest_reaches in
  (lo, first t.files ~from:lo largest smallest_past)

let overlaps (m : Table.meta) ~smallest ~largest =
  largest_reaches m smallest && not (smallest_past m largest)

(** [overlapping ~sorted t ~smallest ~largest] is the files of [t] whose
    user-key range meets [\[smallest, largest\]], in resident order. *)
let overlapping ~sorted t ~smallest ~largest =
  let acc = ref [] in
  let lo, hi =
    if sorted then overlap_range t ~smallest ~largest
    else (0, Array.length t.files)
  in
  for i = hi - 1 downto lo do
    let m = t.files.(i) in
    if sorted || overlaps m ~smallest ~largest then acc := m :: !acc
  done;
  !acc

(* Does any file of [t] meet the user-key range of [m]?  Compares user
   keys in place. *)
let overlaps_meta ~sorted t (m : Table.meta) =
  let meets (f : Table.meta) =
    reaches_smallest_of f m
    && Ik.compare_users f.Table.smallest m.Table.largest <= 0
  in
  if sorted then
    let i = first t.files ~from:0 m reaches_smallest_of in
    i < Array.length t.files && meets t.files.(i)
  else Array.exists meets t.files

(** [bytes_in t ~lo ~hi] is the byte total of the files [\[lo, hi)]. *)
let bytes_in t ~lo ~hi =
  let b = ref 0 in
  for i = lo to hi - 1 do
    b := !b + t.files.(i).Table.file_size
  done;
  !b

(** [pick_round_robin t ~pointer ~pick_files ~next ~next_sorted] is the
    round-robin victim of a leveled level: up to [pick_files] files from
    the first one whose largest user key is past [pointer] (from the
    first file when none is: the cursor wraps).  A first file that
    overlaps nothing in the level below ([next]) is picked alone — a
    trivial move, which widening the pick would throw away. *)
let pick_round_robin t ~pointer ~pick_files ~next ~next_sorted =
  let n = Array.length t.files in
  if n = 0 then []
  else begin
    let start = first t.files ~from:0 pointer largest_past in
    let start = if start = n then 0 else start in
    let victim = t.files.(start) in
    if not (overlaps_meta ~sorted:next_sorted next victim) then [ victim ]
    else begin
      let stop = if pick_files < 0 then n else min n (start + pick_files) in
      let acc = ref [] in
      for i = stop - 1 downto start do
        acc := t.files.(i) :: !acc
      done;
      !acc
    end
  end

(* ---------- user-key span ---------- *)

(** [user_range files] is the union user-key range [(smallest, largest)]
    of [files] (a pair of empty keys when there are none). *)
let user_range (files : Table.meta array) =
  if Array.length files = 0 then ("", "")
  else begin
    let lo = ref 0 and hi = ref 0 in
    Array.iteri
      (fun i (m : Table.meta) ->
        if Ik.compare_users m.Table.smallest files.(!lo).Table.smallest < 0
        then lo := i;
        if Ik.compare_users m.Table.largest files.(!hi).Table.largest > 0 then
          hi := i)
      files;
    ( Ik.user_key files.(!lo).Table.smallest,
      Ik.user_key files.(!hi).Table.largest )
  end

(** [span ~sorted t] is [user_range t.files]; O(1) on a leveled level,
    whose first smallest and last largest user keys are its bounds. *)
let span ~sorted t =
  let n = Array.length t.files in
  if (not sorted) || n = 0 then user_range t.files
  else
    ( Ik.user_key t.files.(0).Table.smallest,
      Ik.user_key t.files.(n - 1).Table.largest )

(* ---------- changes ---------- *)

(* The initial element of every array built here: a static constant.
   Filling a new major-heap array with a young element would make the
   runtime run a minor collection first, and compaction outputs are
   young. *)
let filler =
  {
    Table.number = -1;
    file_size = 0;
    entries = 0;
    smallest = "";
    largest = "";
  }

(* [files.(0 .. pos-1)] ++ [ins] ++ [files.(pos+del ..)], in one new
   array. *)
let splice files ~pos ~del ins =
  let n = Array.length files and k = Array.length ins in
  let len = n - del + k in
  if len = 0 then [||]
  else begin
    let out = Array.make len filler in
    Array.blit files 0 out 0 pos;
    Array.blit ins 0 out pos k;
    Array.blit files (pos + del) out (pos + k) (n - pos - del);
    out
  end

(* Stable merge of two arrays sorted by [order]; on ties [a]'s elements
   come first ([List.merge]'s rule). *)
let merge order a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) filler in
    let i = ref 0 and j = ref 0 in
    for k = 0 to na + nb - 1 do
      if !j >= nb || (!i < na && order a.(!i) b.(!j) <= 0) then begin
        out.(k) <- a.(!i);
        incr i
      end
      else begin
        out.(k) <- b.(!j);
        incr j
      end
    done;
    out
  end

(* Where the contiguous run [removed] sits in a leveled level, or -1. *)
let run_position files (removed : Table.meta list) =
  match removed with
  | [] -> -1
  | (r : Table.meta) :: _ ->
    let pos = first files ~from:0 r.Table.smallest smallest_from in
    let n = Array.length files in
    let rec matches i = function
      | [] -> true
      | (m : Table.meta) :: rest ->
        i < n && files.(i).Table.number = m.Table.number && matches (i + 1) rest
    in
    if matches pos removed then pos else -1

(** [replace ~sorted t ~removed ~added] drops the files of [removed]
    (matched by number) from [t] and installs [added] in the level's
    order: the level that [List.merge order (List.sort order added)] over
    the remaining files would give.  On a leveled level whose [removed]
    is a contiguous run, in order, and whose [added] fits the gap it
    leaves (a compaction's outputs), that is one splice found by binary
    search; anything else falls back to a filter and a merge. *)
let replace ~sorted t ~removed ~added =
  match (removed, added) with
  | [], [] -> t
  | _ ->
    let order = order ~sorted in
    let ins = Array.of_list (List.sort order added) in
    let files = t.files in
    let n = Array.length files and k = Array.length ins in
    (* the run to drop, and where [ins] goes *)
    let pos, del =
      if not sorted then (-1, 0)
      else
        match removed with
        | [] -> (first files ~from:0 ins.(0).Table.smallest smallest_from, 0)
        | _ -> (run_position files removed, List.length removed)
    in
    if
      pos >= 0
      && (k = 0
          || ((pos = 0 || order ins.(0) files.(pos - 1) > 0)
              && (pos + del = n || order ins.(k - 1) files.(pos + del) <= 0)))
    then
      {
        files = splice files ~pos ~del ins;
        bytes = t.bytes - bytes_in t ~lo:pos ~hi:(pos + del) + sum_bytes ins;
      }
    else
      let gone (m : Table.meta) =
        List.exists
          (fun (r : Table.meta) -> r.Table.number = m.Table.number)
          removed
      in
      let kept =
        Array.of_seq (Seq.filter (fun m -> not (gone m)) (Array.to_seq files))
      in
      of_array (merge order ins kept)

(** [cons m t] puts [m] in front of [t]: a flush's new level-0 table. *)
let cons (m : Table.meta) t =
  { files = Array.append [| m |] t.files; bytes = t.bytes + m.Table.file_size }

(* ---------- checks ---------- *)

(** [check ~sorted ~what t] raises [Failure] unless [t] is in its
    layout's order — newest-first, or sorted with disjoint ranges — and
    its byte total is the sum of its files' sizes. *)
let check ~sorted ~what t =
  let files = t.files in
  for i = 0 to Array.length files - 2 do
    let a = files.(i) and b = files.(i + 1) in
    if sorted then begin
      if Ik.compare a.Table.largest b.Table.smallest >= 0 then
        failwith (Printf.sprintf "lsm invariant: %s files overlap" what)
    end
    else if a.Table.number <= b.Table.number then
      failwith (Printf.sprintf "lsm invariant: %s not newest-first" what)
  done;
  if sum_bytes files <> t.bytes then
    failwith (Printf.sprintf "lsm invariant: %s byte total is stale" what)
