(** Sstable data/index blocks with prefix compression and restart points
    (LevelDB block format).

    Entry: [varint shared | varint non_shared | varint value_len |
    key_delta | value].  Every {!restart_interval} entries the full key is
    stored and its offset recorded in the restart array, enabling binary
    search within the block. *)

val restart_interval : int

module Builder : sig
  type t

  val create : unit -> t

  (** [add t key value] appends an entry; keys must arrive in strictly
      ascending order under the table's comparator. *)
  val add : t -> string -> string -> unit

  (** [add_slice t key src pos len] is [add] with the value given as bytes
      [[pos, pos + len)] of [src], appended without an intermediate copy. *)
  val add_slice : t -> string -> string -> int -> int -> unit

  val current_size_estimate : t -> int
  val is_empty : t -> bool

  (** [finish t] returns the serialised block. *)
  val finish : t -> string

  (** [finish_buffer t] serialises the block into the builder's own buffer
      and returns it — no copy; the contents stay valid until {!reset}. *)
  val finish_buffer : t -> Buffer.t

  val reset : t -> unit
end

(** Decoded view over a serialised block. *)
type t

(** @raise Invalid_argument on a corrupt block. *)
val decode : string -> t

(** [decode_view s ~pos ~len] decodes the block held in bytes
    [[pos, pos + len)] of [s] in place: entries and restarts are read from
    [s] itself, which must not change.  [decode s] is
    [decode_view s ~pos:0 ~len:(String.length s)].
    @raise Invalid_argument on a corrupt block or an out-of-bounds range. *)
val decode_view : string -> pos:int -> len:int -> t

val size_bytes : t -> int

(** [iterator ~compare t] walks the block's entries; [compare] orders the
    stored keys (internal-key order for data blocks).  Each entry's key is
    built with one allocation; its value is copied out only when [value]
    is called, and [value_slice] points into the block without a copy.
    @raise Invalid_argument from [seek_to_first], [seek] or [next] on an
    entry whose key or value runs past the block's entry area, and from
    [key]/[value]/[value_slice] when the iterator is not valid. *)
val iterator : compare:(string -> string -> int) -> t -> Pdb_kvs.Iter.t

(** [entries ~compare t] decodes the whole block in order — test helper. *)
val entries : compare:(string -> string -> int) -> t -> (string * string) list
