(** Weighted LRU cache over int keys.

    Backs the block cache, the table cache and the B+-tree's page-cache
    residency model.  Each entry carries an integer weight (bytes);
    inserting past [capacity] evicts least-recently-used entries.

    Entries live in slots of parallel arrays: key, weight, value, and the
    prev/next slot links of the recency list (free slots are chained
    through [next]).  An open-addressing index maps a key to its slot by
    linear probing; a removal shifts the probe run back over the hole, so
    no tombstones build up and lookups never rehash.  A hit through
    {!find_exn} hashes one int, relinks the slot with plain int writes
    and allocates nothing.  A freed slot drops its value, so evicted
    entries are not kept alive. *)

let nil = -1

type 'v t = {
  capacity : int;
  mutable keys : int array;
  mutable weights : int array;
  mutable values : 'v option array; (* [None] in a free slot *)
  mutable prev : int array; (* toward the most recent; [nil] at the head *)
  mutable next : int array; (* toward the least recent; free-slot chain *)
  mutable free : int; (* first free slot, or [nil] *)
  mutable index : int array;
      (* position [p] is [index.(2p)] = key and [index.(2p+1)] = its slot,
         or [nil] when empty; twice as many positions as slots *)
  mutable mask : int; (* index positions - 1 *)
  mutable head : int; (* most recently used *)
  mutable tail : int; (* least recently used *)
  mutable length : int;
  mutable used : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let initial_slots = 8

(* Slots [from, until) chained onto the front of the free list. *)
let chain_free t ~from ~until =
  for s = until - 1 downto from do
    t.next.(s) <- t.free;
    t.free <- s
  done

let create ~capacity =
  let t =
    {
      capacity;
      keys = Array.make initial_slots 0;
      weights = Array.make initial_slots 0;
      values = Array.make initial_slots None;
      prev = Array.make initial_slots nil;
      next = Array.make initial_slots nil;
      free = nil;
      index = Array.make (4 * initial_slots) nil;
      mask = (2 * initial_slots) - 1;
      head = nil;
      tail = nil;
      length = 0;
      used = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }
  in
  chain_free t ~from:0 ~until:initial_slots;
  t

(* ---------- the index ---------- *)

let[@inline] home mask k =
  let h = (k lxor (k lsr 31)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land mask

(* The index position holding [k], or the empty position ending its
   probe run. *)
let rec position index mask k p =
  if index.((2 * p) + 1) = nil || index.(2 * p) = k then p
  else position index mask k ((p + 1) land mask)

(* The slot holding [k], or [nil]. *)
let slot_of t k =
  let p = position t.index t.mask k (home t.mask k) in
  t.index.((2 * p) + 1)

let index_add t k s =
  let p = position t.index t.mask k (home t.mask k) in
  t.index.(2 * p) <- k;
  t.index.((2 * p) + 1) <- s

(* Empty [k]'s position, then move each later entry of the probe run
   whose home does not lie cyclically in (hole, entry] back into the
   hole, so every entry stays reachable from its home. *)
let index_remove t k =
  let index = t.index and mask = t.mask in
  let hole = ref (position index mask k (home mask k)) in
  let j = ref ((!hole + 1) land mask) in
  while index.((2 * !j) + 1) <> nil do
    let h = home mask index.(2 * !j) in
    let stays =
      if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
    in
    if not stays then begin
      index.(2 * !hole) <- index.(2 * !j);
      index.((2 * !hole) + 1) <- index.((2 * !j) + 1);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  index.((2 * !hole) + 1) <- nil

(* Double the slot arrays and the index, re-indexing every live slot. *)
let grow t =
  let n = Array.length t.keys in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.keys <- extend t.keys 0;
  t.weights <- extend t.weights 0;
  t.values <- extend t.values None;
  t.prev <- extend t.prev nil;
  t.next <- extend t.next nil;
  t.index <- Array.make (8 * n) nil;
  t.mask <- (4 * n) - 1;
  for s = 0 to n - 1 do
    if Option.is_some t.values.(s) then index_add t t.keys.(s) s
  done;
  chain_free t ~from:n ~until:(2 * n)

(* ---------- the recency list ---------- *)

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p = nil then t.head <- n else t.next.(p) <- n;
  if n = nil then t.tail <- p else t.prev.(n) <- p

let push_front t s =
  t.prev.(s) <- nil;
  t.next.(s) <- t.head;
  if t.head = nil then t.tail <- s else t.prev.(t.head) <- s;
  t.head <- s

let promote t s =
  if s <> t.head then begin
    unlink t s;
    push_front t s
  end

(* ---------- slots ---------- *)

let alloc_slot t k =
  if t.free = nil then grow t;
  let s = t.free in
  t.free <- t.next.(s);
  t.keys.(s) <- k;
  index_add t k s;
  t.length <- t.length + 1;
  s

(* Unlink and unindex slot [s], drop its value and free it. *)
let release t s =
  unlink t s;
  index_remove t t.keys.(s);
  t.used <- t.used - t.weights.(s);
  t.values.(s) <- None;
  t.next.(s) <- t.free;
  t.free <- s;
  t.length <- t.length - 1

let value t s =
  match t.values.(s) with Some v -> v | None -> assert false

let evict_over_capacity t =
  while t.used > t.capacity do
    release t t.tail;
    t.evictions <- t.evictions + 1
  done

(* ---------- operations ---------- *)

(** [find_exn t k] returns the cached value and promotes it to most
    recent, allocating nothing.
    @raise Not_found on a miss (counted as one). *)
let find_exn t k =
  let s = slot_of t k in
  if s = nil then begin
    t.misses <- t.misses + 1;
    raise Not_found
  end
  else begin
    t.hits <- t.hits + 1;
    promote t s;
    value t s
  end

(** [find t k] is {!find_exn} as an option. *)
let find t k = match find_exn t k with v -> Some v | exception Not_found -> None

(** [mem t k] tests presence without affecting recency or hit counters. *)
let mem t k = slot_of t k <> nil

(** [peek t k] returns the cached value without promoting it or touching
    the hit/miss counters — for accounting and opportunistic reads that
    must not distort cache statistics. *)
let peek t k =
  let s = slot_of t k in
  if s = nil then None else t.values.(s)

(** [insert t k v ~weight] adds or replaces an entry as the most recent,
    evicting as needed.  Entries heavier than the whole capacity are not
    cached (and leave any resident entry for [k] as it was). *)
let insert t k v ~weight =
  if weight <= t.capacity then begin
    let s = slot_of t k in
    let s =
      if s = nil then alloc_slot t k
      else begin
        unlink t s;
        t.used <- t.used - t.weights.(s);
        s
      end
    in
    t.values.(s) <- Some v;
    t.weights.(s) <- weight;
    push_front t s;
    t.used <- t.used + weight;
    evict_over_capacity t
  end

(** [update_weight t k weight] re-weighs a resident entry in place —
    for cached values whose footprint changes after insertion (a lazily
    decoded part materialising).  Recency is unchanged; growing past
    capacity evicts from the LRU end as usual (possibly the entry
    itself). *)
let update_weight t k ~weight =
  let s = slot_of t k in
  if s <> nil then begin
    t.used <- t.used - t.weights.(s) + weight;
    t.weights.(s) <- weight;
    evict_over_capacity t
  end

let remove t k =
  let s = slot_of t k in
  if s <> nil then release t s

let used t = t.used
let capacity t = t.capacity
let length t = t.length
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

(** [fold t f acc] folds over entries from most to least recently used
    without affecting recency. *)
let fold t f acc =
  let rec go s acc =
    if s = nil then acc else go t.next.(s) (f acc t.keys.(s) (value t s))
  in
  go t.head acc

(** [clear t] drops every entry; the counters are kept. *)
let clear t =
  let n = Array.length t.keys in
  Array.fill t.values 0 n None;
  Array.fill t.index 0 (Array.length t.index) nil;
  t.free <- nil;
  chain_free t ~from:0 ~until:n;
  t.head <- nil;
  t.tail <- nil;
  t.length <- 0;
  t.used <- 0
