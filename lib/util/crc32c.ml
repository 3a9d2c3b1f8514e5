(** CRC-32C (Castagnoli) checksums, as used by LevelDB's log and table
    formats.  Software slicing-by-8: eight 256-entry tables, computed once
    at module initialisation, fold eight input bytes per step. *)

let polynomial = 0x82F63B78 (* reversed Castagnoli polynomial *)

(* [tables.(k).(b)] is the CRC of byte [b] followed by [k] zero bytes;
   [tables.(0)] is the classic bytewise table. *)
let tables =
  let t = Array.make_matrix 8 256 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := (!c lsr 1) lxor polynomial
      else c := !c lsr 1
    done;
    t.(0).(i) <- !c
  done;
  for k = 1 to 7 do
    for i = 0 to 255 do
      let prev = t.(k - 1).(i) in
      t.(k).(i) <- (prev lsr 8) lxor t.(0).(prev land 0xff)
    done
  done;
  t

let t0 = tables.(0)
and t1 = tables.(1)
and t2 = tables.(2)
and t3 = tables.(3)
and t4 = tables.(4)
and t5 = tables.(5)
and t6 = tables.(6)
and t7 = tables.(7)

(* Bytes [i, i+4) of [s] as a little-endian unsigned int. *)
let word32 s i =
  String.get_uint16_le s i lor (String.get_uint16_le s (i + 2) lsl 16)

(** [update crc s pos len] extends checksum [crc] with [s.[pos .. pos+len-1]].
    @raise Invalid_argument when the range is outside [s]. *)
let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32c.update: range out of bounds";
  let crc = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = word32 s !i lxor !crc and hi = word32 s (!i + 4) in
    crc :=
      Array.unsafe_get t7 (lo land 0xff)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
      lxor Array.unsafe_get t4 (lo lsr 24)
      lxor Array.unsafe_get t3 (hi land 0xff)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xff)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xff)
      lxor Array.unsafe_get t0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    crc := t0.((!crc lxor Char.code (String.unsafe_get s j)) land 0xff)
           lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

(** [string s] is the CRC-32C of the whole string. *)
let string s = update 0 s 0 (String.length s)

(** [masked crc] applies LevelDB's mask so that checksums of data that itself
    contains checksums do not collide trivially. *)
let masked crc =
  let rotated = ((crc lsr 15) lor (crc lsl 17)) land 0xFFFFFFFF in
  (rotated + 0xa282ead8) land 0xFFFFFFFF

(** [unmask m] inverts {!masked}. *)
let unmask m =
  let rotated = (m - 0xa282ead8) land 0xFFFFFFFF in
  ((rotated lsr 17) lor (rotated lsl 15)) land 0xFFFFFFFF
