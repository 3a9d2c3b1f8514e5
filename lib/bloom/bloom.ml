(** Bloom filters.

    PebblesDB attaches one filter to each sstable (§4.1) so that a get()
    examining the several overlapping sstables of a guard only reads the
    (with high probability) one table that actually contains the key.
    Standard Kirsch–Mitzenmacher double hashing over MurmurHash3, matching
    LevelDB's bloom strategy. *)

type t = {
  bits : Bytes.t;
  nbits : int;
  k : int; (* number of probes *)
  mutable nkeys : int;
}

(** [create ~bits_per_key n] sizes a filter for [n] expected keys.
    [bits_per_key = 10] gives ~1 % false positives (LevelDB's default). *)
let create ?(bits_per_key = 10) n =
  let nbits = max 64 (n * bits_per_key) in
  let nbytes = (nbits + 7) / 8 in
  let k = max 1 (min 30 (int_of_float (float_of_int bits_per_key *. 0.69))) in
  { bits = Bytes.make nbytes '\000'; nbits = nbytes * 8; k; nkeys = 0 }

let set_bit b i =
  let byte = i / 8 and bit = i mod 8 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl bit)))

let get_bit b i =
  let byte = i / 8 and bit = i mod 8 in
  Char.code (Bytes.get b byte) land (1 lsl bit) <> 0

(* Kirsch–Mitzenmacher double hashing: probe [i] of a key is
   [((h1 + i * h2) land max_int) mod nbits].  With [h1, h2 < 2^32] and
   [i < 30] the sum never overflows, so the positions are [h1 mod nbits]
   stepped by [h2 mod nbits], wrapping at [nbits]: one [mod] per key
   instead of one per probe. *)
let hash1 s pos len = Pdb_util.Murmur3.hash32_range ~seed:0xbc9f1d34 s pos len
let hash2 s pos len = Pdb_util.Murmur3.hash32_range ~seed:0x7a2d187e s pos len

(* The next probe position after [p] for a key whose step is [delta]. *)
let step t p delta =
  let p = p + delta in
  if p >= t.nbits then p - t.nbits else p

(** [add_range t s pos len] inserts the key held in bytes
    [[pos, pos + len)] of [s], hashing it in place. *)
let add_range t s pos len =
  let h1 = hash1 s pos len and h2 = hash2 s pos len in
  let delta = h2 mod t.nbits in
  let p = ref (h1 mod t.nbits) in
  for _ = 1 to t.k do
    set_bit t.bits !p;
    p := step t !p delta
  done;
  t.nkeys <- t.nkeys + 1

(** [add t key] inserts a key. *)
let add t key = add_range t key 0 (String.length key)

(** [mem_hashed t h1 h2] is [mem] for a key whose {!hash1}/{!hash2} are
    [h1]/[h2] — a get hashes its key once for every table it probes. *)
let mem_hashed t h1 h2 =
  let delta = h2 mod t.nbits in
  let p = ref (h1 mod t.nbits) and i = ref 0 in
  while !i < t.k && get_bit t.bits !p do
    p := step t !p delta;
    incr i
  done;
  !i = t.k

(** [mem t key] is [false] only if the key was never added; may return
    [true] spuriously (false positive). *)
let mem t key =
  let len = String.length key in
  mem_hashed t (hash1 key 0 len) (hash2 key 0 len)

(** [size_bytes t] is the in-memory footprint — reported in the Table 5.4
    memory-consumption experiment. *)
let size_bytes t = Bytes.length t.bits

let nkeys t = t.nkeys

(** [encode t] serialises the filter (bit array + probe count), for storing
    filters alongside sstables. *)
let encode t =
  let buf = Buffer.create (Bytes.length t.bits + 8) in
  Pdb_util.Varint.put_uvarint buf t.k;
  Pdb_util.Varint.put_uvarint buf t.nkeys;
  Pdb_util.Varint.put_length_prefixed buf (Bytes.to_string t.bits);
  Buffer.contents buf

(** [decode_view s ~pos] decodes the filter encoded at byte [pos] of [s],
    copying only its bit array out. *)
let decode_view s ~pos =
  let k, pos = Pdb_util.Varint.get_uvarint s pos in
  let nkeys, pos = Pdb_util.Varint.get_uvarint s pos in
  let n, pos = Pdb_util.Varint.get_uvarint s pos in
  if pos + n > String.length s then invalid_arg "Bloom.decode: truncated";
  let bits = Bytes.sub (Bytes.unsafe_of_string s) pos n in
  { bits; nbits = n * 8; k; nkeys }

let decode s = decode_view s ~pos:0
