(** Bloom filters.

    PebblesDB attaches one filter to each sstable (§4.1) so that a get()
    examining the several overlapping sstables of a guard only reads the
    (with high probability) one table that actually contains the key.
    Kirsch–Mitzenmacher double hashing over MurmurHash3, matching LevelDB's
    bloom strategy. *)

type t

(** [create ~bits_per_key n] sizes a filter for [n] expected keys.
    [bits_per_key = 10] (the default) gives ~1% false positives. *)
val create : ?bits_per_key:int -> int -> t

val add : t -> string -> unit

(** [add_range t s pos len] adds the key held in bytes [[pos, pos + len)]
    of [s] without copying it; the filter bits equal [add t (String.sub s
    pos len)].
    @raise Invalid_argument when the range is outside [s]. *)
val add_range : t -> string -> int -> int -> unit

(** [mem t key] is [false] only if the key was never added; may return
    [true] spuriously (false positive), never a false negative. *)
val mem : t -> string -> bool

(** The two hashes of the key held in bytes [[pos, pos + len)] of a
    string, the same for every filter. *)
val hash1 : string -> int -> int -> int
val hash2 : string -> int -> int -> int

(** [mem_hashed t (hash1 k 0 n) (hash2 k 0 n)] is [mem t k] for a key [k]
    of length [n]: a lookup probing many filters hashes its key once. *)
val mem_hashed : t -> int -> int -> bool

(** In-memory footprint — reported in the Table 5.4 memory experiment. *)
val size_bytes : t -> int

val nkeys : t -> int

(** Serialise the filter for storing alongside an sstable. *)
val encode : t -> string

val decode : string -> t

(** [decode_view s ~pos] decodes the filter encoded at byte [pos] of [s];
    [decode s] is [decode_view s ~pos:0].  Only the bit array is copied. *)
val decode_view : string -> pos:int -> t
