(** Shared block cache: decoded blocks keyed by (file, offset), weighted by
    block size.  A cache hit costs no device time — only the modeled CPU the
    engine charges — which is how "the lower levels are usually cached in
    memory" (§2.2) and the low-memory experiment (Figure 5.2b) are
    expressed.

    The cache interns each full file path to an int id and keys the LRU by
    [(id lsl 32) lor offset], so shards sharing one cache cannot collide
    and a probe hashes one int.  A table reader keeps the {!file} it was
    interned to, so its block loads skip the path lookup.  Per file the
    cache records the offsets it has cached — a superset of the resident
    ones — so retiring a file costs its own blocks, not a pass over the
    whole cache. *)

type file = {
  id : int;
  mutable live : bool; (* false once [evict_file] dropped it *)
  mutable offsets : int list; (* cached at some point; may repeat *)
  mutable recorded : int; (* length of [offsets] *)
  mutable pruned : int; (* length of [offsets] after the last prune *)
}

type t = {
  lru : Block.t Pdb_util.Lru.t;
  files : (string, file) Hashtbl.t; (* full path -> interned id *)
  mutable next_id : int;
}

let create ~capacity =
  { lru = Pdb_util.Lru.create ~capacity; files = Hashtbl.create 16;
    next_id = 0 }

let lru_key (f : file) offset = (f.id lsl 32) lor offset

(** [intern t name] is [name]'s interned file, created on first use and
    again after {!evict_file} dropped it. *)
let intern t name =
  match Hashtbl.find t.files name with
  | f -> f
  | exception Not_found ->
    let f =
      { id = t.next_id; live = true; offsets = []; recorded = 0; pruned = 0 }
    in
    t.next_id <- t.next_id + 1;
    Hashtbl.add t.files name f;
    f

(** Whether [f] is still interned: a file [evict_file] dropped must be
    interned afresh. *)
let live (f : file) = f.live

(* Record [offset] as cached.  Blocks evicted by capacity and loaded again
   repeat in the list, so once it doubles it is cut back to the resident
   offsets: amortised O(1), and never more than twice the resident count
   (plus slack). *)
let record t (f : file) offset =
  if f.recorded >= (2 * f.pruned) + 16 then begin
    f.offsets <-
      List.filter (fun o -> Pdb_util.Lru.mem t.lru (lru_key f o)) f.offsets;
    f.recorded <- List.length f.offsets;
    f.pruned <- f.recorded
  end;
  f.offsets <- offset :: f.offsets;
  f.recorded <- f.recorded + 1

(** [load t env f ~file ~offset ~size ~hint] returns the decoded block of
    the live interned file [f] (named [file]), reading it from the
    environment (and charging device time) only on a miss.  The block is
    a view into the file's own string. *)
let load t env (f : file) ~file ~offset ~size ~hint =
  let k = lru_key f offset in
  match Pdb_util.Lru.find_exn t.lru k with
  | block -> block
  | exception Not_found ->
    let data, pos =
      Pdb_simio.Env.read_view env file ~pos:offset ~len:size ~hint
    in
    let block = Block.decode_view data ~pos ~len:size in
    Pdb_util.Lru.insert t.lru k block ~weight:size;
    record t f offset;
    block

(** [find_or_load t env ~file ~offset ~size ~hint] is {!load} by file
    name, also saying whether the block was resident. *)
let find_or_load t env ~file ~offset ~size ~hint =
  let misses = Pdb_util.Lru.misses t.lru in
  let block = load t env (intern t file) ~file ~offset ~size ~hint in
  (block, if Pdb_util.Lru.misses t.lru > misses then `Miss else `Hit)

(** [evict_file t ~file] drops every cached block of [file].  Called when
    an sstable is garbage-collected: its decoded blocks must not keep
    occupying LRU capacity (they can never hit again) or skew hit rates,
    mirroring [Table_cache.evict]. *)
let evict_file t ~file =
  match Hashtbl.find t.files file with
  | f ->
    List.iter (fun o -> Pdb_util.Lru.remove t.lru (lru_key f o)) f.offsets;
    f.live <- false;
    Hashtbl.remove t.files file
  | exception Not_found -> ()

(** [mem t ~file ~offset] is whether that block is resident, without
    touching recency or the hit counters. *)
let mem t ~file ~offset =
  match Hashtbl.find t.files file with
  | f -> Pdb_util.Lru.mem t.lru (lru_key f offset)
  | exception Not_found -> false

(** [resident_files t] lists the files with at least one resident block,
    sorted. *)
let resident_files t =
  Hashtbl.fold
    (fun name f acc ->
      if List.exists (fun o -> Pdb_util.Lru.mem t.lru (lru_key f o)) f.offsets
      then name :: acc
      else acc)
    t.files []
  |> List.sort String.compare

let used t = Pdb_util.Lru.used t.lru
let hits t = Pdb_util.Lru.hits t.lru
let misses t = Pdb_util.Lru.misses t.lru
let evictions t = Pdb_util.Lru.evictions t.lru
