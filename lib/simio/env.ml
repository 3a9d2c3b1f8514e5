(** Simulated storage environment: an in-memory file system with IO
    accounting, device-time charging and crash simulation.

    This stands in for the paper's ext4-on-SSD testbed.  Every store in the
    repository performs all of its IO through an [Env.t], so byte counts
    (write amplification) and modeled device time are directly comparable
    across engines.

    Durability model: [append] buffers data; [sync] makes the current file
    contents crash-durable.  {!crash} truncates every file back to its last
    synced length (and removes files that were never synced), after which
    stores exercise their recovery paths.  [rename] follows the ext4
    replace-via-rename heuristic: it implies a flush of the file's current
    contents, so the renamed file — name and data — is durable, matching
    the way LevelDB-family stores install a new MANIFEST via CURRENT.

    Fault injection: a seeded {!Fault_plan} arms a crash at the Nth
    subsequent IO event (create/append/sync/rename/delete/positioned
    write), raising {!Injected_crash} out of the store's own code path —
    including mid-flush and mid-compaction, since background jobs perform
    their IO through the same environment.  When a plan is installed,
    {!crash} additionally applies a torn-write model: each file's unsynced
    suffix persists only up to a block-granular prefix chosen by the plan's
    RNG, and the surviving tail may be garbled (bit flips), modelling
    partial page persistence after power failure. *)

exception Injected_crash of string

module Fault_plan = struct
  type t = {
    rng : Pdb_util.Rng.t;
    mutable countdown : int;  (** IO events left before the crash fires *)
    mutable armed : bool;
    torn_writes : bool;
    garbage_tail_prob : float;
    block_bytes : int;
    mutable ticks : int;  (** total IO events observed, fired or not *)
    mutable fired_at : string option;
    mutable fired_in_background : bool;
    mutable torn_files : int;
        (** files whose unsynced tail partially persisted at the crash *)
  }

  let create ?(torn_writes = true) ?(garbage_tail_prob = 0.25)
      ?(block_bytes = 4096) ~seed ~crash_after () =
    {
      rng = Pdb_util.Rng.create seed;
      countdown = crash_after;
      armed = crash_after > 0;
      torn_writes;
      garbage_tail_prob;
      block_bytes;
      ticks = 0;
      fired_at = None;
      fired_in_background = false;
      torn_files = 0;
    }

  let fired t = t.fired_at <> None
  let fired_at t = t.fired_at
  let fired_in_background t = t.fired_in_background
  let ticks t = t.ticks
  let torn_files t = t.torn_files
end

(* A file is a sequence of extents, each a slice of an immutable string,
   with its start offset alongside so a read finds its first extent by
   binary search, followed by a pending tail: the bytes appended since the
   tail was last materialized, held in a writer-owned [Buffer.t].  No
   string is ever mutated: crash truncation drops or shortens extents,
   and positioned writes and torn-tail garbling replace the bytes they
   cover with a new extent, keeping the uncovered parts of the extents
   around it as slices of the same strings.  Invariants: [starts.(0) = 0],
   every extent is non-empty, and extent [i + 1] starts where extent [i]
   ends, so the last one ends at [len]; the pending tail follows [len].
   Every operation that looks at the extents materializes the tail
   first. *)
type file = {
  mutable starts : int array;
  mutable exts : string array;
  mutable offs : int array;  (** where in [exts.(i)] extent [i] begins *)
  mutable n : int;  (** extents in use *)
  mutable len : int;  (** bytes in extents *)
  mutable tail : Buffer.t option;  (** pending bytes, after [len] *)
  mutable synced : int;
  mutable ever_synced : bool;
      (* distinct from [synced = 0]: a file synced while empty is durable
         as an empty file, a never-synced file vanishes at a crash *)
}

let new_file ~ever_synced =
  { starts = [||]; exts = [||]; offs = [||]; n = 0; len = 0; tail = None;
    synced = 0; ever_synced }

(* A pending tail becomes an extent once it would pass [tail_bytes].  The
   constant sits below glibc's default 128 KB mmap threshold, so every
   materialized extent is a plain heap allocation rather than fresh pages,
   and above the default 64 KB memtable's WAL, so a rotated log is deleted
   before it is ever materialized.  An append at least this long becomes
   an extent by itself. *)
let tail_bytes = 96 * 1024

let pending f = match f.tail with Some b -> Buffer.length b | None -> 0

(* Logical size: extents plus the pending tail. *)
let size f = f.len + pending f

let extent_len f i =
  (if i + 1 < f.n then f.starts.(i + 1) else f.len) - f.starts.(i)

(* Make room for [k] more extents. *)
let reserve f k =
  if f.n + k > Array.length f.exts then begin
    let cap = max 8 (max (f.n + k) (2 * f.n)) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 f.n;
      b
    in
    f.starts <- grow f.starts 0;
    f.exts <- grow f.exts "";
    f.offs <- grow f.offs 0
  end

(* Append [s] as one extent; [s] must be non-empty. *)
let push f s =
  reserve f 1;
  f.starts.(f.n) <- f.len;
  f.exts.(f.n) <- s;
  f.offs.(f.n) <- 0;
  f.n <- f.n + 1;
  f.len <- f.len + String.length s

(* Move the pending tail into one exact-size extent. *)
let materialize f =
  match f.tail with
  | Some b when Buffer.length b > 0 ->
    push f (Buffer.contents b);
    Buffer.clear b
  | _ -> ()

(* Index of the extent holding byte [pos], for [0 <= pos < f.len]. *)
let extent_at f pos =
  let lo = ref 0 and hi = ref (f.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if f.starts.(mid) <= pos then lo := mid else hi := mid - 1
  done;
  !lo

(* Bytes [pos, pos + len) of [f], already bounds-checked.  A range that is
   exactly one whole extent string is returned without a copy. *)
let contents f ~pos ~len =
  if len = 0 then ""
  else begin
    let i = extent_at f pos in
    let e = f.exts.(i) in
    if pos = f.starts.(i) && f.offs.(i) = 0 && String.length e = len
       && extent_len f i = len
    then e
    else begin
      let b = Bytes.create len in
      let i = ref i and skip = ref (pos - f.starts.(i)) and dst = ref 0 in
      while !dst < len do
        let n = min (extent_len f !i - !skip) (len - !dst) in
        Bytes.blit_string f.exts.(!i) (f.offs.(!i) + !skip) b !dst n;
        incr i;
        skip := 0;
        dst := !dst + n
      done;
      Bytes.unsafe_to_string b
    end
  end

(* The backing string of bytes [pos, pos + len) of [f] and the range's
   offset in it, already bounds-checked: a range inside one extent is
   returned in place, any other is copied out. *)
let view f ~pos ~len =
  if len = 0 then ("", 0)
  else begin
    let i = extent_at f pos in
    let skip = pos - f.starts.(i) in
    if skip + len <= extent_len f i then (f.exts.(i), f.offs.(i) + skip)
    else (contents f ~pos ~len, 0)
  end

(* Drop everything from byte [n] on ([n <= f.len]). *)
let truncate f n =
  if n < f.len then begin
    let keep = if n = 0 then 0 else extent_at f (n - 1) + 1 in
    Array.fill f.exts keep (f.n - keep) "";
    f.n <- keep;
    f.len <- n
  end

(* Replace bytes [pos, pos + String.length s) with [s] ([pos <= f.len]),
   extending the file when the range runs past its end.  The extents the
   range touches give way to [s], the uncovered head of the first and tail
   of the last kept as slices of their strings.  Adding an extent mid-file
   shifts every later one, so when the head and tail together are no
   longer than [s] they are copied into one new extent with it instead:
   a page store rewriting its slots keeps a steady extent count, and no
   write copies more than twice its own length. *)
let splice f ~pos s =
  let m = String.length s in
  if m = 0 then ()
  else if pos = f.len then push f s
  else begin
    let stop = pos + m in
    let i = extent_at f pos in
    let j = if stop >= f.len then f.n - 1 else extent_at f (stop - 1) in
    let head = pos - f.starts.(i) in
    let tail = max 0 (f.starts.(j) + extent_len f j - stop) in
    let tail_ext = f.exts.(j)
    and tail_off = f.offs.(j) + extent_len f j - tail in
    let rest = f.n - j - 1 in
    let pieces = (if head > 0 then 1 else 0) + 1 + if tail > 0 then 1 else 0 in
    let start, s, head, tail =
      if pieces > j - i + 1 && rest > 0 && head + tail <= m then begin
        let b = Bytes.create (head + m + tail) in
        Bytes.blit_string f.exts.(i) f.offs.(i) b 0 head;
        Bytes.blit_string s 0 b head m;
        Bytes.blit_string tail_ext tail_off b (head + m) tail;
        (f.starts.(i), Bytes.unsafe_to_string b, 0, 0)
      end
      else (pos, s, head, tail)
    in
    (* extents [i, j] become: head slice, [s], tail slice *)
    let k = if head > 0 then i + 1 else i in
    let delta = (k - i) + 1 + (if tail > 0 then 1 else 0) - (j - i + 1) in
    if delta <> 0 then begin
      reserve f delta;
      Array.blit f.starts (j + 1) f.starts (j + 1 + delta) rest;
      Array.blit f.exts (j + 1) f.exts (j + 1 + delta) rest;
      Array.blit f.offs (j + 1) f.offs (j + 1 + delta) rest;
      if delta < 0 then Array.fill f.exts (f.n + delta) (-delta) "";
      f.n <- f.n + delta
    end;
    f.starts.(k) <- start;
    f.exts.(k) <- s;
    f.offs.(k) <- 0;
    if tail > 0 then begin
      f.starts.(k + 1) <- stop;
      f.exts.(k + 1) <- tail_ext;
      f.offs.(k + 1) <- tail_off
    end;
    f.len <- max f.len stop
  end

(* The file table, keyed by name.  [Hashtbl.hash] keeps the generic
   table's bucket layout, so [list] enumerates in the same order. *)
module Files = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = {
  files : file Files.t;
  stats : Io_stats.t;
  device : Device.t;
  clock : Clock.t;
  mutable plan : Fault_plan.t option;
  mutable atomic_depth : int;
  mutable pending_crash : string option;
  mutable tracer : Trace.t option;
  mutable free_tails : Buffer.t list;  (** emptied tails, for reuse *)
}

(* At most this many emptied tails wait for reuse. *)
let max_free_tails = 8

type writer = { env : t; name : string; file : file }

let create ?(device = Device.ssd ()) () =
  {
    files = Files.create 64;
    stats = Io_stats.create ();
    device;
    clock = Clock.create ();
    plan = None;
    atomic_depth = 0;
    pending_crash = None;
    tracer = None;
    free_tails = [];
  }

let stats t = t.stats
let device t = t.device
let clock t = t.clock

let set_fault_plan t plan = t.plan <- Some plan
let clear_fault_plan t = t.plan <- None
let fault_plan t = t.plan

let set_tracer t tr = t.tracer <- Some tr
let clear_tracer t = t.tracer <- None
let tracer t = t.tracer

(* One injection point: decrement the armed plan's countdown and raise
   {!Injected_crash} when it reaches zero.  Inside an {!with_atomic}
   section the crash is deferred to the section's end, modelling an
   operation the device commits atomically (page-store checkpoints). *)
let tick t label =
  match t.plan with
  | Some p when p.Fault_plan.armed ->
    p.Fault_plan.ticks <- p.Fault_plan.ticks + 1;
    p.Fault_plan.countdown <- p.Fault_plan.countdown - 1;
    if p.Fault_plan.countdown <= 0 then begin
      p.Fault_plan.armed <- false;
      p.Fault_plan.fired_at <- Some label;
      p.Fault_plan.fired_in_background <-
        t.clock.Clock.lane = Clock.Background;
      (match t.tracer with
       | Some tr ->
         Trace.instant tr ~name:("fault:" ^ label) ~cat:"fault"
           ~lane:"faults"
           ~ts_ns:(Clock.elapsed_ns (Clock.snapshot t.clock))
           ()
       | None -> ());
      if t.atomic_depth > 0 then t.pending_crash <- Some label
      else raise (Injected_crash label)
    end
  | _ -> ()

(* [tick t (op ^ name)], building the label only while a plan is armed:
   file operations pay no string concatenation in plain runs. *)
let tick_op t op name =
  match t.plan with
  | Some p when p.Fault_plan.armed -> tick t (op ^ name)
  | _ -> ()

(** [with_atomic t f] runs [f] deferring any injected crash to the end of
    the section: the IO inside is committed (or lost) as a unit. *)
let with_atomic t f =
  t.atomic_depth <- t.atomic_depth + 1;
  let result =
    Fun.protect f ~finally:(fun () -> t.atomic_depth <- t.atomic_depth - 1)
  in
  (* fire outside the protect: a raise inside [~finally] would surface as
     [Fun.Finally_raised] instead of the crash itself *)
  (if t.atomic_depth = 0 then
     match t.pending_crash with
     | Some label ->
       t.pending_crash <- None;
       raise (Injected_crash label)
     | None -> ());
  result

let find t name =
  match Files.find_opt t.files name with
  | Some f -> f
  | None -> raise (Sys_error (name ^ ": no such simulated file"))

(* [find] for an operation that looks at the file's bytes. *)
let observe t name =
  let f = find t name in
  materialize f;
  f

(* Detach [f]'s tail, dropping its pending bytes, and keep the emptied
   buffer for the next writer. *)
let release t f =
  match f.tail with
  | Some b ->
    f.tail <- None;
    Buffer.clear b;
    if List.compare_length_with t.free_tails max_free_tails < 0 then
      t.free_tails <- b :: t.free_tails
  | None -> ()

(** [create_file t name] opens [name] for appending, truncating any existing
    contents.  Truncating an already-durable name keeps the directory entry
    durable (the file survives a crash, empty); a brand-new name stays
    volatile until the first sync. *)
let create_file t name =
  let ever_synced =
    match Files.find_opt t.files name with
    | Some f ->
      release t f;
      f.ever_synced
    | None -> false
  in
  let file = new_file ~ever_synced in
  Files.replace t.files name file;
  t.stats.files_created <- t.stats.files_created + 1;
  tick_op t "create:" name;
  { env = t; name; file }

(* The writer's tail with room for [n] more bytes: a tail that would pass
   [tail_bytes] is materialized first, and a file without one takes an
   emptied buffer from the free list. *)
let tail_for w n =
  let f = w.file in
  match f.tail with
  | Some b ->
    if Buffer.length b + n > tail_bytes then materialize f;
    b
  | None ->
    let b =
      match w.env.free_tails with
      | b :: rest ->
        w.env.free_tails <- rest;
        b
      | [] -> Buffer.create tail_bytes
    in
    f.tail <- Some b;
    b

(* The accounting of one append of [n] bytes: stats, device time, then the
   fault tick. *)
let charge_append w n =
  let st = w.env.stats in
  st.bytes_written <- st.bytes_written + n;
  st.write_ops <- st.write_ops + 1;
  Clock.advance w.env.clock (Device.write_cost w.env.device ~bytes:n);
  tick_op w.env "append:" w.name

(** [append w s] copies [s] into the file's pending tail; an [s] of at
    least [tail_bytes] becomes an extent by itself, without a copy.
    Charges sequential write cost. *)
let append w s =
  let n = String.length s in
  if n > 0 then begin
    if n >= tail_bytes then begin
      materialize w.file;
      push w.file s
    end
    else Buffer.add_string (tail_for w n) s;
    charge_append w n
  end

(** [append_buffer w buf] is [append w (Buffer.contents buf)] without the
    intermediate string: [buf]'s bytes are copied into the pending tail, and
    [buf] is left unchanged, so a writer can clear and reuse it. *)
let append_buffer w buf =
  let n = Buffer.length buf in
  if n > 0 then begin
    if n >= tail_bytes then begin
      materialize w.file;
      push w.file (Buffer.contents buf)
    end
    else Buffer.add_buffer (tail_for w n) buf;
    charge_append w n
  end

(** [sync w] makes the file contents durable. *)
let sync w =
  materialize w.file;
  w.file.synced <- w.file.len;
  w.file.ever_synced <- true;
  w.env.stats.syncs <- w.env.stats.syncs + 1;
  Clock.advance w.env.clock (Device.sync_cost w.env.device);
  tick_op w.env "sync:" w.name

(** [close w] closes the writer: its tail is materialized and the buffer
    goes back to the free list (contents remain; unsynced data stays
    volatile until the next [sync] on a new writer or a crash). *)
let close w =
  materialize w.file;
  release w.env w.file

let writer_size w = size w.file

(** [write_at t name ~pos s] overwrites bytes at [pos] (extending the file
    with zeroes as needed) — the random-write path used by the page-based
    B+-tree stores.  Positioned writes are treated as immediately durable
    (page stores are assumed to carry their own journaling; see
    DESIGN.md). *)
let write_at t name ~pos s =
  if pos < 0 then
    invalid_arg (Printf.sprintf "Env.write_at %s: negative position" name);
  let f =
    match Files.find_opt t.files name with
    | Some f ->
      materialize f;
      f
    | None ->
      let f = new_file ~ever_synced:false in
      Files.replace t.files name f;
      t.stats.files_created <- t.stats.files_created + 1;
      f
  in
  let n = String.length s in
  if pos > f.len then push f (String.make (pos - f.len) '\000');
  splice f ~pos s;
  f.synced <- f.len;
  f.ever_synced <- true;
  t.stats.bytes_written <- t.stats.bytes_written + n;
  t.stats.write_ops <- t.stats.write_ops + 1;
  (* positioned page writes pay a random-IO style setup like reads do *)
  Clock.advance t.clock
    (Device.read_cost t.device ~hint:Device.Random_read ~bytes:0
     +. Device.write_cost t.device ~bytes:n);
  tick_op t "write_at:" name

let exists t name = Files.mem t.files name

let file_size t name = (observe t name).len

(* The file behind a read of [pos, pos + len) by [op], materialized and
   bounds-checked. *)
let observe_range t op name ~pos ~len =
  let f = observe t name in
  if pos < 0 || len < 0 || pos + len > f.len then
    invalid_arg
      (Printf.sprintf "Env.%s %s: [%d,%d) out of bounds (size %d)" op name pos
         (pos + len) f.len);
  f

(** [peek t name ~pos ~len] reads a range without charging device time or
    IO stats — the sendfile-style path replication shipping uses, where
    the primary streams file bytes it just wrote (still page-cache
    resident) onto the wire.  The network link charges the transfer. *)
let peek t name ~pos ~len =
  contents (observe_range t "peek" name ~pos ~len) ~pos ~len

(** [io_event t label] registers an external IO event (e.g. a replication
    ship) with the fault-injection plan, so crash sweeps land between and
    inside shipping steps exactly as they do between file operations. *)
let io_event t label = tick t label

(* The file behind a device read, charged per the read [hint]. *)
let charged_read t op name ~pos ~len ~hint =
  let f = observe_range t op name ~pos ~len in
  t.stats.bytes_read <- t.stats.bytes_read + len;
  t.stats.read_ops <- t.stats.read_ops + 1;
  Clock.advance t.clock (Device.read_cost t.device ~hint ~bytes:len);
  f

(** [read t name ~pos ~len ~hint] reads a range, charging device cost per
    the read [hint].  Cached layers above this module avoid calling it for
    cache hits. *)
let read t name ~pos ~len ~hint =
  contents (charged_read t "read" name ~pos ~len ~hint) ~pos ~len

(** [read_view t name ~pos ~len ~hint] is [read] returning the range as a
    backing string and its offset in it: a range inside one extent is not
    copied. *)
let read_view t name ~pos ~len ~hint =
  view (charged_read t "read_view" name ~pos ~len ~hint) ~pos ~len

let read_all t name ~hint = read t name ~pos:0 ~len:(file_size t name) ~hint

let delete t name =
  match Files.find_opt t.files name with
  | Some f ->
    release t f;
    Files.remove t.files name;
    t.stats.files_deleted <- t.stats.files_deleted + 1;
    tick_op t "delete:" name
  | None -> ()

(** [rename t ~src ~dst] atomically renames a file.  Like ext4's
    replace-via-rename heuristic, the rename implies a flush: the file's
    contents at rename time become durable under the new name, so a
    freshly installed MANIFEST or CURRENT cannot vanish at a crash. *)
let rename t ~src ~dst =
  let f = observe t src in
  Files.remove t.files src;
  Files.replace t.files dst f;
  f.synced <- f.len;
  f.ever_synced <- true;
  t.stats.syncs <- t.stats.syncs + 1;
  Clock.advance t.clock (Device.sync_cost t.device);
  tick_op t "rename:" dst

let list t = Files.fold (fun name _ acc -> name :: acc) t.files []

(** Total bytes stored across all files, pending tails included —
    used for space-amplification measurements (Figure 5.3). *)
let total_file_bytes t =
  Files.fold (fun _ f acc -> acc + size f) t.files 0

(* Flip a handful of random bits in bytes [lo, hi) of [f] — the garbage a
   torn page leaves behind.  The garbled range becomes a fresh extent, so
   strings handed out by earlier reads keep their contents. *)
let garble rng f lo hi =
  let n = hi - lo in
  if n > 0 then begin
    let data = Bytes.of_string (contents f ~pos:lo ~len:n) in
    let flips = 1 + Pdb_util.Rng.int rng (min 8 n) in
    for _ = 1 to flips do
      let i = Pdb_util.Rng.int rng n in
      let bit = 1 lsl Pdb_util.Rng.int rng 8 in
      Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor bit))
    done;
    splice f ~pos:lo (Bytes.unsafe_to_string data)
  end

(** [crash t] simulates a power failure: every file loses its unsynced
    suffix; files that never reached a sync disappear.  Under an installed
    {!Fault_plan} with torn writes, the unsynced suffix instead persists up
    to a block-granular prefix chosen by the plan's RNG (possibly with a
    garbled tail), and a never-synced file's directory entry itself may or
    may not have persisted.  Whatever survives the crash is durable — it is
    on the platter.  The plan is consumed. *)
let crash t =
  let torn =
    match t.plan with
    | Some p when p.Fault_plan.torn_writes -> Some p
    | _ -> None
  in
  (* iterate in sorted name order so a seeded plan is deterministic *)
  let names = List.sort compare (list t) in
  List.iter
    (fun name ->
      let f = Files.find t.files name in
      (* the crash ends every writer: whatever they appended is part of
         the file the torn-write model truncates *)
      materialize f;
      release t f;
      let keep_file, base =
        if f.ever_synced then (true, f.synced)
        else
          match torn with
          | Some p ->
            (* the creating directory update may itself have persisted *)
            (Pdb_util.Rng.bool p.Fault_plan.rng, 0)
          | None -> (false, 0)
      in
      if not keep_file then Files.remove t.files name
      else begin
        let unsynced = f.len - base in
        (match torn with
         | Some p when unsynced > 0 ->
           let block = p.Fault_plan.block_bytes in
           let nblocks = (unsynced + block - 1) / block in
           let keep_blocks = Pdb_util.Rng.int p.Fault_plan.rng (nblocks + 1) in
           let keep = min unsynced (keep_blocks * block) in
           truncate f (base + keep);
           if keep > 0 then begin
             p.Fault_plan.torn_files <- p.Fault_plan.torn_files + 1;
             if Pdb_util.Rng.float p.Fault_plan.rng < p.Fault_plan.garbage_tail_prob
             then garble p.Fault_plan.rng f (max base (f.len - block)) f.len
           end
         | _ -> truncate f base);
        (* post-reboot, whatever persisted is by definition durable *)
        f.synced <- f.len;
        f.ever_synced <- true
      end)
    names;
  t.plan <- None;
  t.pending_crash <- None
