(** Sstable data/index blocks with prefix compression and restart points
    (LevelDB block format).

    Entry: [varint shared | varint non_shared | varint value_len |
    key_delta | value].  Every [restart_interval] entries the full key is
    stored and its offset recorded in the restart array, enabling binary
    search within the block. *)

let restart_interval = 16

module Builder = struct
  type t = {
    buf : Buffer.t;
    mutable restarts : int list; (* reversed *)
    mutable num_restarts : int; (* length of [restarts] *)
    mutable counter : int;
    mutable last_key : string;
    mutable entries : int;
  }

  let create () =
    { buf = Buffer.create 4096; restarts = [ 0 ]; num_restarts = 1;
      counter = 0; last_key = ""; entries = 0 }

  let shared_prefix_len a b =
    let n = min (String.length a) (String.length b) in
    let i = ref 0 in
    while !i < n && a.[!i] = b.[!i] do
      incr i
    done;
    !i

  (** [add_slice t key src pos len] appends an entry whose value is bytes
      [[pos, pos + len)] of [src]; keys must arrive in strictly ascending
      order under the table's comparator. *)
  let add_slice t key src pos len =
    let shared =
      if t.counter < restart_interval then shared_prefix_len t.last_key key
      else begin
        t.restarts <- Buffer.length t.buf :: t.restarts;
        t.num_restarts <- t.num_restarts + 1;
        t.counter <- 0;
        0
      end
    in
    let non_shared = String.length key - shared in
    Pdb_util.Varint.put_uvarint t.buf shared;
    Pdb_util.Varint.put_uvarint t.buf non_shared;
    Pdb_util.Varint.put_uvarint t.buf len;
    Buffer.add_substring t.buf key shared non_shared;
    Buffer.add_substring t.buf src pos len;
    t.last_key <- key;
    t.counter <- t.counter + 1;
    t.entries <- t.entries + 1

  (** [add t key value] appends an entry; keys must arrive in strictly
      ascending order under the table's comparator. *)
  let add t key value = add_slice t key value 0 (String.length value)

  let current_size_estimate t =
    Buffer.length t.buf + (4 * t.num_restarts) + 4

  let is_empty t = t.entries = 0

  (** [finish_buffer t] appends the restart array to the builder's own
      buffer and returns that buffer, which holds the serialised block
      until the next {!reset}. *)
  let finish_buffer t =
    let restarts = List.rev t.restarts in
    List.iter (fun off -> Pdb_util.Varint.put_fixed32 t.buf off) restarts;
    Pdb_util.Varint.put_fixed32 t.buf t.num_restarts;
    t.buf

  (** [finish t] returns the serialised block. *)
  let finish t = Buffer.contents (finish_buffer t)

  let reset t =
    Buffer.clear t.buf;
    t.restarts <- [ 0 ];
    t.num_restarts <- 1;
    t.counter <- 0;
    t.last_key <- "";
    t.entries <- 0
end

(** Decoded view over a serialised block held in [data] from [base] on,
    read in place.  Offsets below are positions in [data]; the block ends
    after the restart array and its count. *)
type t = {
  data : string;
  base : int;
  restarts_offset : int;  (** where the restart array starts *)
  num_restarts : int;
}

let decode_view data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length data then
    invalid_arg "Block.decode_view: range out of bounds";
  if len < 4 then invalid_arg "Block.decode: too short";
  let num_restarts = Pdb_util.Varint.get_fixed32 data (pos + len - 4) in
  let restarts_offset = pos + len - 4 - (4 * num_restarts) in
  if restarts_offset < pos then invalid_arg "Block.decode: corrupt restarts";
  { data; base = pos; restarts_offset; num_restarts }

let decode data = decode_view data ~pos:0 ~len:(String.length data)

let size_bytes t = t.restarts_offset + (4 * t.num_restarts) + 4 - t.base

(* Restart offsets are stored relative to the block's start. *)
let restart_point t i =
  t.base + Pdb_util.Varint.get_fixed32 t.data (t.restarts_offset + (4 * i))

(* The iterator's position: the current entry's key, where its value
   lies, and the offset of the entry after it.  [cursor] is the varint
   decoder's read position. *)
type state = {
  mutable valid : bool;
  mutable key : string;
  mutable vpos : int;
  mutable vlen : int;
  mutable value : string option;  (** [vpos, vlen) once [value ()] ran *)
  mutable next_pos : int;
  mutable cursor : int;
}

let corrupt () = invalid_arg "Block.iterator: corrupt entry"

(* Read a varint at [st.cursor], which must stay inside the entry area. *)
let rec varint_from t st shift acc =
  if st.cursor >= t.restarts_offset || shift > 56 then corrupt ()
  else begin
    let b = Char.code (String.unsafe_get t.data st.cursor) in
    st.cursor <- st.cursor + 1;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else varint_from t st (shift + 7) acc
  end

let varint t st = varint_from t st 0 0

(* Decode the entry at [pos] into [st]: the key takes one allocation (its
   shared prefix comes from [prev_key]); the value is only located.  An
   entry whose key or value runs past the entry area raises. *)
let decode_entry t st ~prev_key pos =
  st.cursor <- pos;
  let shared = varint t st in
  let non_shared = varint t st in
  let value_len = varint t st in
  let kpos = st.cursor in
  let vpos = kpos + non_shared in
  if shared > String.length prev_key
     || non_shared > t.restarts_offset - kpos
     || value_len > t.restarts_offset - vpos
  then corrupt ();
  st.key <-
    (if shared = 0 then String.sub t.data kpos non_shared
     else begin
       let k = Bytes.create (shared + non_shared) in
       Bytes.blit_string prev_key 0 k 0 shared;
       Bytes.blit_string t.data kpos k shared non_shared;
       Bytes.unsafe_to_string k
     end);
  st.vpos <- vpos;
  st.vlen <- value_len;
  st.value <- None;
  st.valid <- true;
  st.next_pos <- vpos + value_len

(* The iterator's steps are plain functions of the block and its state,
   so building an iterator allocates only the record's own closures. *)
let advance t st =
  if st.next_pos >= t.restarts_offset then st.valid <- false
  else
    decode_entry t st ~prev_key:(if st.valid then st.key else "") st.next_pos

let seek_to_restart t st i =
  st.next_pos <- restart_point t i;
  st.valid <- false;
  advance t st

let check_valid st =
  if not st.valid then invalid_arg "Block.iterator: iterator is not valid"

(** [iterator ~compare t] walks the block's entries.  [compare] orders the
    stored keys (internal-key order for data blocks). *)
let iterator ~compare t =
  (* The first entry after a restart point has shared = 0, so decoding
     with the running previous key is always correct. *)
  let st =
    { valid = false; key = ""; vpos = 0; vlen = 0; value = None;
      next_pos = t.restarts_offset; cursor = 0 }
  in
  {
    Pdb_kvs.Iter.seek_to_first =
      (fun () ->
        if t.num_restarts = 0 then st.valid <- false
        else seek_to_restart t st 0);
    seek =
      (fun target ->
        if t.num_restarts = 0 then st.valid <- false
        else begin
          (* last restart whose first key is < target *)
          let lo = ref 0 and hi = ref (t.num_restarts - 1) in
          while !lo < !hi do
            let mid = (!lo + !hi + 1) / 2 in
            decode_entry t st ~prev_key:"" (restart_point t mid);
            if compare st.key target < 0 then lo := mid else hi := mid - 1
          done;
          seek_to_restart t st !lo;
          while st.valid && compare st.key target < 0 do
            advance t st
          done
        end);
    next = (fun () -> if st.valid then advance t st);
    valid = (fun () -> st.valid);
    key =
      (fun () ->
        check_valid st;
        st.key);
    value =
      (fun () ->
        check_valid st;
        match st.value with
        | Some v -> v
        | None ->
          let v = String.sub t.data st.vpos st.vlen in
          st.value <- Some v;
          v);
    value_slice =
      (fun sl ->
        check_valid st;
        sl.Pdb_kvs.Iter.src <- t.data;
        sl.pos <- st.vpos;
        sl.len <- st.vlen);
  }

(** [entries ~compare t] decodes the whole block in order — test helper. *)
let entries ~compare t = Pdb_kvs.Iter.to_list (iterator ~compare t)
