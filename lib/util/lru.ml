(** Weighted LRU cache.

    Backs the block cache and table cache in the sstable substrate.  Each
    entry carries an integer weight (bytes); inserting past [capacity]
    evicts least-recently-used entries.  Implemented as a hash table over an
    intrusive doubly-linked list.  A hit through {!find_exn} allocates
    nothing: each node holds its own [Some node], built once at insert,
    so promoting it never boxes a fresh option. *)

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  mutable weight : int;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
  mutable self : ('k, 'v) node option; (* [Some] this node *)
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option; (* most recently used *)
  mutable tail : ('k, 'v) node option; (* least recently used *)
  mutable used : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  {
    capacity;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    used = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink t node =
  (match node.prev with
   | Some p -> p.next <- node.next
   | None -> t.head <- node.next);
  (match node.next with
   | Some n -> n.prev <- node.prev
   | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- node.self | None -> ());
  t.head <- node.self;
  match t.tail with None -> t.tail <- node.self | Some _ -> ()

(* The node's own [Some]: [Hashtbl.find_opt] would box every hit. *)
let lookup t k =
  match Hashtbl.find t.table k with
  | node -> node.self
  | exception Not_found -> None

let evict_one t =
  match t.tail with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key;
    t.used <- t.used - node.weight;
    t.evictions <- t.evictions + 1

(** [find_exn t k] returns the cached value and promotes it to most
    recent, allocating nothing.
    @raise Not_found on a miss (counted as one). *)
let find_exn t k =
  match Hashtbl.find t.table k with
  | node ->
    t.hits <- t.hits + 1;
    unlink t node;
    push_front t node;
    node.value
  | exception Not_found ->
    t.misses <- t.misses + 1;
    raise Not_found

(** [find t k] is {!find_exn} as an option. *)
let find t k = match find_exn t k with v -> Some v | exception Not_found -> None

(** [mem t k] tests presence without affecting recency or hit counters. *)
let mem t k = Hashtbl.mem t.table k

(** [peek t k] returns the cached value without promoting it or touching
    the hit/miss counters — for accounting and opportunistic reads that
    must not distort cache statistics. *)
let peek t k =
  match lookup t k with
  | Some node -> Some node.value
  | None -> None

(** [insert t k v ~weight] adds or replaces an entry, evicting as needed.
    Entries heavier than the whole capacity are not cached. *)
let insert t k v ~weight =
  if weight <= t.capacity then begin
    (match lookup t k with
     | Some old ->
       unlink t old;
       Hashtbl.remove t.table k;
       t.used <- t.used - old.weight
     | None -> ());
    let node =
      { key = k; value = v; weight; prev = None; next = None; self = None }
    in
    node.self <- Some node;
    Hashtbl.replace t.table k node;
    push_front t node;
    t.used <- t.used + weight;
    while t.used > t.capacity do
      evict_one t
    done
  end

(** [update_weight t k weight] re-weighs a resident entry in place —
    for cached values whose footprint changes after insertion (a lazily
    decoded part materialising).  Recency is unchanged; growing past
    capacity evicts from the LRU end as usual (possibly the entry
    itself). *)
let update_weight t k ~weight =
  match lookup t k with
  | Some node ->
    t.used <- t.used - node.weight + weight;
    node.weight <- weight;
    while t.used > t.capacity do
      evict_one t
    done
  | None -> ()

let remove t k =
  match lookup t k with
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table k;
    t.used <- t.used - node.weight
  | None -> ()

let used t = t.used
let capacity t = t.capacity
let length t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

(** [fold t f acc] folds over entries from most to least recently used
    without affecting recency. *)
let fold t f acc =
  let rec go node acc =
    match node with
    | None -> acc
    | Some n -> go n.next (f acc n.key n.value)
  in
  go t.head acc

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.used <- 0
