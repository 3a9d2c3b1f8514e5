(** Internal keys: user key ⊕ sequence number ⊕ kind.

    As in LevelDB (§2.2 of the paper), updating or deleting a key never
    modifies data in place — the key is re-inserted with a higher sequence
    number, deletions carrying a tombstone flag.  The most recent version of
    a key is the one with the highest sequence number.

    Encoding: [user_key ^ fixed64(seq << 8 | kind)], so an encoded internal
    key can be stored in sstable blocks as an opaque string.  Ordering is by
    user key ascending, then sequence number *descending* (newest first),
    then kind. *)

type kind = Deletion | Value

let kind_to_int = function Deletion -> 0 | Value -> 1
let kind_of_int = function
  | 0 -> Deletion
  | 1 -> Value
  | n -> invalid_arg (Printf.sprintf "Internal_key.kind_of_int %d" n)

let trailer_size = 8

(** [encode ~user_key ~seq ~kind] builds an encoded internal key. *)
let encode ~user_key ~seq ~kind =
  let n = String.length user_key in
  let b = Bytes.create (n + trailer_size) in
  Bytes.blit_string user_key 0 b 0 n;
  Bytes.set_int64_le b n
    (Int64.logor
       (Int64.shift_left (Int64.of_int seq) 8)
       (Int64.of_int (kind_to_int kind)));
  Bytes.unsafe_to_string b

(** [user_key ikey] extracts the user portion. *)
let user_key ikey =
  let n = String.length ikey in
  assert (n >= trailer_size);
  String.sub ikey 0 (n - trailer_size)

(* Byte order over [a.[i..n-1]] and [b.[i..n-1]]: the sign of the first
   difference, 0 when equal. *)
let rec compare_bytes a b i n =
  if i >= n then 0
  else
    let c =
      Char.code (String.unsafe_get a i) - Char.code (String.unsafe_get b i)
    in
    if c <> 0 then c else compare_bytes a b (i + 1) n

(* The same, eight bytes at a time: big-endian words with the sign bit
   flipped compare as unsigned. *)
let rec compare_prefix a b i n =
  if i + 8 > n then compare_bytes a b i n
  else
    let wa = Int64.logxor (String.get_int64_be a i) Int64.min_int
    and wb = Int64.logxor (String.get_int64_be b i) Int64.min_int in
    if wa = wb then compare_prefix a b (i + 8) n
    else if wa < wb then -1
    else 1

(* The 56-bit sequence number stored little-endian above the kind byte of
   the trailer at [off]. *)
let trailer_seq s off =
  String.get_uint16_le s (off + 1)
  lor (String.get_uint16_le s (off + 3) lsl 16)
  lor (String.get_uint16_le s (off + 5) lsl 32)
  lor (Char.code (String.unsafe_get s (off + 7)) lsl 48)

(* The trailer of [ikey] starts at [String.length ikey - trailer_size]:
   the kind byte, then the sequence number.  Both read in place. *)
let seq ikey = trailer_seq ikey (String.length ikey - trailer_size)

let kind ikey =
  kind_of_int (Char.code ikey.[String.length ikey - trailer_size])

(** [same_user_key a b] is [String.equal (user_key a) (user_key b)],
    compared in place. *)
let same_user_key a b =
  let na = String.length a - trailer_size
  and nb = String.length b - trailer_size in
  assert (na >= 0 && nb >= 0);
  na = nb && compare_prefix a b 0 na = 0

(** [compare_user ikey user_key] has the sign of [String.compare (user_key
    ikey) user_key], comparing in place. *)
let compare_user ikey u =
  let n = String.length ikey - trailer_size and m = String.length u in
  assert (n >= 0);
  let c = compare_prefix ikey u 0 (if n < m then n else m) in
  if c <> 0 then c else Int.compare n m

(** [compare_users a b] has the sign of [String.compare (user_key a)
    (user_key b)] for two internal keys, comparing in place. *)
let compare_users a b =
  let na = String.length a - trailer_size
  and nb = String.length b - trailer_size in
  assert (na >= 0 && nb >= 0);
  let c = compare_prefix a b 0 (if na < nb then na else nb) in
  if c <> 0 then c else Int.compare na nb

(** Total order over encoded internal keys: user key ascending, sequence
    descending, kind descending — so the freshest entry for a user key sorts
    first.  Compares both keys in place, without allocating. *)
let compare a b =
  let na = String.length a - trailer_size
  and nb = String.length b - trailer_size in
  assert (na >= 0 && nb >= 0);
  let c = compare_prefix a b 0 (if na < nb then na else nb) in
  if c < 0 then -1
  else if c > 0 then 1
  else if na <> nb then Int.compare na nb
  else
    let c = Int.compare (trailer_seq b nb) (trailer_seq a na) in
    if c <> 0 then c
    else
      (* kinds only matter between equal sequence numbers *)
      Int.compare
        (kind_to_int (kind_of_int (Char.code b.[nb])))
        (kind_to_int (kind_of_int (Char.code a.[na])))

(** [max_for_lookup user_key] is the internal key that sorts before every
    stored version of [user_key]: seeking to it lands on the freshest
    version visible at the largest sequence number. *)
let max_seq = (1 lsl 56) - 1

let max_for_lookup user_key = encode ~user_key ~seq:max_seq ~kind:Value

(** [lookup_at ~user_key ~seq] is the lookup key for a snapshot read:
    seeking to it lands on the freshest version visible at sequence number
    [seq]. *)
let lookup_at ~user_key ~seq = encode ~user_key ~seq ~kind:Value

let pp ppf ikey =
  Fmt.pf ppf "%S@%d%s" (user_key ikey) (seq ikey)
    (match kind ikey with Deletion -> "(del)" | Value -> "")
