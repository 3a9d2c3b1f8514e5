(* Unit and property tests for the util substrate. *)

open Pdb_util

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---------- Varint ---------- *)

let test_varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 16 in
      Varint.put_uvarint buf n;
      let v, pos = Varint.get_uvarint (Buffer.contents buf) 0 in
      check Alcotest.int "value" n v;
      check Alcotest.int "consumed" (Buffer.length buf) pos)
    [ 0; 1; 127; 128; 300; 16383; 16384; 1 lsl 28; max_int ]

let test_varint_sequence () =
  let buf = Buffer.create 64 in
  let values = [ 5; 0; 1000000; 77; 128 ] in
  List.iter (Varint.put_uvarint buf) values;
  let s = Buffer.contents buf in
  let rec decode pos acc =
    if pos >= String.length s then List.rev acc
    else
      let v, pos = Varint.get_uvarint s pos in
      decode pos (v :: acc)
  in
  check Alcotest.(list int) "sequence" values (decode 0 [])

let test_varint_truncated () =
  Alcotest.check_raises "truncated"
    (Invalid_argument "Varint.get_uvarint: truncated") (fun () ->
      ignore (Varint.get_uvarint "\xff" 0))

let test_fixed_roundtrip () =
  let buf = Buffer.create 16 in
  Varint.put_fixed32 buf 0xDEADBEEF;
  Varint.put_fixed64 buf 0x1122334455667788L;
  let s = Buffer.contents buf in
  check Alcotest.int "fixed32" 0xDEADBEEF (Varint.get_fixed32 s 0);
  check Alcotest.bool "fixed64" true
    (Int64.equal 0x1122334455667788L (Varint.get_fixed64 s 4))

let test_length_prefixed () =
  let buf = Buffer.create 16 in
  Varint.put_length_prefixed buf "hello";
  Varint.put_length_prefixed buf "";
  Varint.put_length_prefixed buf "world!";
  let s = Buffer.contents buf in
  let a, pos = Varint.get_length_prefixed s 0 in
  let b, pos = Varint.get_length_prefixed s pos in
  let c, _ = Varint.get_length_prefixed s pos in
  check Alcotest.(list string) "slices" [ "hello"; ""; "world!" ] [ a; b; c ]

let prop_varint =
  qtest "varint roundtrip (random)"
    QCheck.(map abs small_int)
    (fun n ->
      let buf = Buffer.create 16 in
      Varint.put_uvarint buf n;
      fst (Varint.get_uvarint (Buffer.contents buf) 0) = n)

(* ---------- CRC32C ---------- *)

let test_crc_known () =
  (* CRC-32C of "123456789" is 0xE3069283 (standard check value). *)
  check Alcotest.int "check value" 0xE3069283 (Crc32c.string "123456789")

let test_crc_slice () =
  let s = "xxthe quick brown foxyy" in
  check Alcotest.int "slice equals substring crc"
    (Crc32c.string "the quick brown fox")
    (Crc32c.update 0 s 2 19)

let test_crc_mask_roundtrip () =
  List.iter
    (fun c ->
      check Alcotest.int "unmask (mask c) = c" c
        (Crc32c.unmask (Crc32c.masked c)))
    [ 0; 1; 0xDEADBEEF land 0xFFFFFFFF; 0xFFFFFFFF; 12345678 ]

let prop_crc_differs =
  qtest "crc distinguishes single-byte changes" QCheck.string (fun s ->
      String.length s < 2
      ||
      let s' = Bytes.of_string s in
      Bytes.set s' 0 (Char.chr ((Char.code s.[0] + 1) land 0xff));
      Crc32c.string s <> Crc32c.string (Bytes.to_string s'))

(* The textbook byte-at-a-time CRC-32C, against which the sliced
   implementation is checked. *)
let crc_bytewise crc s pos len =
  let crc = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    let c = ref ((!crc lxor Char.code s.[i]) land 0xff) in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := (!c lsr 1) lxor 0x82F63B78
      else c := !c lsr 1
    done;
    crc := !c lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let prop_crc_sliced_matches_bytewise =
  (* random lengths 0-100 at random, unaligned offsets: covers the
     8-byte loop, tails shorter than 8 bytes, and an empty range *)
  qtest ~count:500 "sliced crc = bytewise crc (offsets, lengths 0-100)"
    QCheck.(
      quad (int_bound 0xFFFFFFFF) (string_of_size Gen.(0 -- 120))
        small_nat small_nat)
    (fun (seed, s, a, b) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = min 100 (if n - pos = 0 then 0 else b mod (n - pos + 1)) in
      Crc32c.update seed s pos len = crc_bytewise seed s pos len)

let prop_crc_chains =
  qtest "update (update 0 a) b = string (a ^ b)"
    QCheck.(pair string string)
    (fun (a, b) ->
      Crc32c.update (Crc32c.update 0 a 0 (String.length a)) b 0
        (String.length b)
      = Crc32c.string (a ^ b))

let test_crc_out_of_bounds () =
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Crc32c.update: range out of bounds") (fun () ->
      ignore (Crc32c.update 0 "abcdefghij" 4 7))

(* ---------- Murmur3 ---------- *)

let test_murmur_deterministic () =
  check Alcotest.int "same input same hash" (Murmur3.hash32 "pebbles")
    (Murmur3.hash32 "pebbles");
  check Alcotest.bool "seed changes hash" true
    (Murmur3.hash32 ~seed:1 "pebbles" <> Murmur3.hash32 ~seed:2 "pebbles")

let test_murmur_spread () =
  (* Hashing 10k sequential keys should produce ~even bit distribution in
     the low bits (the bits guard selection depends on). *)
  let n = 10_000 in
  let ones = ref 0 in
  for i = 0 to n - 1 do
    let h = Murmur3.hash32 (Printf.sprintf "key%08d" i) in
    if h land 1 = 1 then incr ones
  done;
  let frac = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool) "low bit balanced" true (frac > 0.45 && frac < 0.55)

let test_murmur_known_answers () =
  (* MurmurHash3_x86_32 reference vectors *)
  check Alcotest.int "empty" 0 (Murmur3.hash32 "");
  check Alcotest.int "hello" 0x248bfa47 (Murmur3.hash32 "hello");
  check Alcotest.int "fox" 0x2e4ff723
    (Murmur3.hash32 "The quick brown fox jumps over the lazy dog")

let prop_murmur_range_matches_copy =
  (* unaligned offsets and lengths 0-40 cover every tail length *)
  qtest ~count:500 "hash32_range = hash32 of the copy (offsets, lengths 0-40)"
    QCheck.(
      quad (int_bound 0xFFFFFFFF) (string_of_size Gen.(0 -- 60)) small_nat
        small_nat)
    (fun (seed, s, a, b) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = min 40 (b mod (n - pos + 1)) in
      Murmur3.hash32_range ~seed s pos len
      = Murmur3.hash32 ~seed (String.sub s pos len))

let test_murmur_range_out_of_bounds () =
  let raises name pos len =
    Alcotest.check_raises name (Invalid_argument "Murmur3.hash32_range")
      (fun () -> ignore (Murmur3.hash32_range "abcdefghij" pos len))
  in
  raises "past the end" 4 7;
  raises "negative position" (-1) 2;
  raises "negative length" 2 (-1);
  check Alcotest.int "empty range at the end" (Murmur3.hash32 "")
    (Murmur3.hash32_range "abcdefghij" 10 0)

let test_trailing_ones () =
  check Alcotest.int "0b0111" 3 (Murmur3.trailing_ones 0b0111);
  check Alcotest.int "0b0110" 0 (Murmur3.trailing_ones 0b0110);
  check Alcotest.int "0" 0 (Murmur3.trailing_ones 0);
  check Alcotest.int "0b1111" 4 (Murmur3.trailing_ones 0b1111)

(* ---------- Histogram ---------- *)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i)
  done;
  check (Alcotest.float 0.001) "mean" 50.5 (Histogram.mean h);
  check (Alcotest.float 0.001) "median" 50.0 (Histogram.median h);
  check (Alcotest.float 0.001) "p90" 90.0 (Histogram.percentile h 90.0);
  check (Alcotest.float 0.001) "p95" 95.0 (Histogram.percentile h 95.0);
  check (Alcotest.float 0.001) "min" 1.0 (Histogram.min_value h);
  check (Alcotest.float 0.001) "max" 100.0 (Histogram.max_value h)

let test_histogram_empty () =
  let h = Histogram.create () in
  check (Alcotest.float 0.0) "mean empty" 0.0 (Histogram.mean h);
  check (Alcotest.float 0.0) "median empty" 0.0 (Histogram.median h)

let test_histogram_interleaved_sorting () =
  let h = Histogram.create () in
  Histogram.add h 5.0;
  ignore (Histogram.median h);
  Histogram.add h 1.0;
  (* adding after a percentile query must keep ordering correct *)
  check (Alcotest.float 0.001) "min after resort" 1.0 (Histogram.min_value h)

(* nearest-rank edges: rank = ceil(p/100 * n) clamped to [1, n] *)
let test_histogram_percentile_edges () =
  let h = Histogram.create () in
  check (Alcotest.float 0.0) "empty p50" 0.0 (Histogram.percentile h 50.0);
  Histogram.add h 7.0;
  check (Alcotest.float 0.0) "single p0" 7.0 (Histogram.percentile h 0.0);
  check (Alcotest.float 0.0) "single p50" 7.0 (Histogram.percentile h 50.0);
  check (Alcotest.float 0.0) "single p100" 7.0 (Histogram.percentile h 100.0);
  let h = Histogram.create () in
  for i = 1 to 10 do
    Histogram.add h (float_of_int i)
  done;
  check (Alcotest.float 0.0) "p0 is min" 1.0 (Histogram.percentile h 0.0);
  check (Alcotest.float 0.0) "p100 is max" 10.0 (Histogram.percentile h 100.0);
  check (Alcotest.float 0.0) "p99.9 is max" 10.0 (Histogram.percentile h 99.9);
  check (Alcotest.float 0.0) "p10 rank-1" 1.0 (Histogram.percentile h 10.0);
  check (Alcotest.float 0.0) "p11 rank-2" 2.0 (Histogram.percentile h 11.0)

(* the sort must cover only the live prefix: after growth past the initial
   capacity, stale slots beyond [len] must never leak into percentiles *)
let test_histogram_growth_sort () =
  let h = Histogram.create () in
  (* descending insert forces worst-case ordering across growth *)
  let n = 200 in
  for i = n downto 1 do
    Histogram.add h (float_of_int i);
    if i mod 17 = 0 then ignore (Histogram.median h)
  done;
  check (Alcotest.float 0.0) "min" 1.0 (Histogram.min_value h);
  check (Alcotest.float 0.0) "max" 200.0 (Histogram.max_value h);
  check (Alcotest.float 0.0) "p50" 100.0 (Histogram.percentile h 50.0);
  check (Alcotest.float 0.0) "p90" 180.0 (Histogram.percentile h 90.0);
  check Alcotest.int "count" n (Histogram.count h)

(* ---------- LRU ---------- *)

let test_lru_basic () =
  let c = Lru.create ~capacity:10 in
  Lru.insert c 1 1 ~weight:4;
  Lru.insert c 2 2 ~weight:4;
  check Alcotest.(option int) "find a" (Some 1) (Lru.find c 1);
  Lru.insert c 3 3 ~weight:4;
  (* 2 was least recently used (1 was touched by find) *)
  check Alcotest.(option int) "b evicted" None (Lru.find c 2);
  check Alcotest.(option int) "a survives" (Some 1) (Lru.find c 1);
  check Alcotest.(option int) "c present" (Some 3) (Lru.find c 3)

let test_lru_replace () =
  let c = Lru.create ~capacity:10 in
  Lru.insert c 1 1 ~weight:4;
  Lru.insert c 1 9 ~weight:6;
  check Alcotest.(option int) "replaced" (Some 9) (Lru.find c 1);
  check Alcotest.int "used reflects replacement" 6 (Lru.used c)

let test_lru_oversized () =
  let c = Lru.create ~capacity:10 in
  Lru.insert c 100 1 ~weight:20;
  check Alcotest.(option int) "oversized not cached" None (Lru.find c 100)

let test_lru_remove () =
  let c = Lru.create ~capacity:10 in
  Lru.insert c 1 1 ~weight:2;
  Lru.remove c 1;
  check Alcotest.(option int) "removed" None (Lru.find c 1);
  check Alcotest.int "weight released" 0 (Lru.used c)

let test_lru_fold () =
  let c = Lru.create ~capacity:100 in
  Lru.insert c 1 1 ~weight:1;
  Lru.insert c 2 2 ~weight:1;
  let sum = Lru.fold c (fun acc _ v -> acc + v) 0 in
  check Alcotest.int "fold sum" 3 sum

let prop_lru_capacity =
  qtest "lru never exceeds capacity"
    QCheck.(list (pair small_int small_int))
    (fun ops ->
      let c = Lru.create ~capacity:50 in
      List.iter (fun (k, w) -> Lru.insert c k k ~weight:(1 + (w mod 10))) ops;
      Lru.used c <= 50)

(* Evicted, removed, replaced and cleared values are not kept alive by
   their freed slots. *)
let test_lru_releases_values () =
  let c = Lru.create ~capacity:4 in
  let w = Weak.create 4 in
  let[@inline never] insert i k =
    let v = Bytes.make 16 (Char.chr (65 + i)) in
    Weak.set w i (Some v);
    Lru.insert c k v ~weight:1
  in
  insert 0 1;
  insert 1 2;
  insert 2 3;
  Lru.remove c 1;
  insert 3 2 (* replaces key 2 *);
  for k = 10 to 13 do
    Lru.insert c k (Bytes.make 16 'z') ~weight:1 (* evicts keys 3 and 2 *)
  done;
  Gc.full_major ();
  List.iter
    (fun i ->
      check Alcotest.bool (Printf.sprintf "value %d collected" i) false
        (Weak.check w i))
    [ 0; 1; 2; 3 ];
  check Alcotest.int "still full" 4 (Lru.length c)

(* The LRU against a reference recency list: most recent first, with the
   admission, eviction and counting rules spelled out on a plain list. *)
module Lru_model = struct
  type t = {
    capacity : int;
    mutable entries : (int * (int * int)) list; (* key, (value, weight) *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let used m = List.fold_left (fun acc (_, (_, w)) -> acc + w) 0 m.entries

  let evict m =
    while used m > m.capacity do
      m.entries <- List.filteri (fun i _ -> i < List.length m.entries - 1)
          m.entries;
      m.evictions <- m.evictions + 1
    done

  let insert m k v w =
    if w <= m.capacity then begin
      m.entries <- (k, (v, w)) :: List.remove_assoc k m.entries;
      evict m
    end

  let find m k =
    match List.assoc_opt k m.entries with
    | Some (v, w) ->
      m.hits <- m.hits + 1;
      m.entries <- (k, (v, w)) :: List.remove_assoc k m.entries;
      Some v
    | None ->
      m.misses <- m.misses + 1;
      None

  let update_weight m k w =
    if List.mem_assoc k m.entries then begin
      m.entries <-
        List.map (fun (k', (v, w')) -> (k', (v, if k' = k then w else w')))
          m.entries;
      evict m
    end
end

type lru_op =
  | Insert of int * int * int (* key, value, weight *)
  | Insert_oversized of int * int (* key, weight beyond capacity *)
  | Find of int
  | Peek of int
  | Mem of int
  | Remove of int
  | Update_weight of int * int
  | Clear

(* Keys far apart and near each other, negative and extreme, so probe
   runs wrap and collide. *)
let lru_keys =
  [| 0; 1; 2; 3; 17; 33; -1; -42; max_int; min_int; 1 lsl 32;
     (1 lsl 32) lor 4096; (2 lsl 32) lor 4096; (7 lsl 32) lor 123456;
     1 lsl 40; 1 lsl 61; 4096; 8192; 12288; 65536; 1 lsl 20; 999_983;
     31; 63; 127; 255; 511; 1023; 2047; 4095; 1000; 2000; 3000; 4000;
     5000; 6000; 7000; 8000; 9000; 10_000 |]

let lru_op_gen =
  let open QCheck.Gen in
  let key = map (fun i -> lru_keys.(i)) (int_bound (Array.length lru_keys - 1)) in
  frequency
    [ (6, map3 (fun k v w -> Insert (k, v, w)) key small_nat (int_range 0 30));
      (1, map2 (fun k w -> Insert_oversized (k, w)) key (int_range 1 10));
      (5, map (fun k -> Find k) key);
      (2, map (fun k -> Peek k) key);
      (2, map (fun k -> Mem k) key);
      (2, map (fun k -> Remove k) key);
      (2, map2 (fun k w -> Update_weight (k, w)) key (int_range 0 60));
      (1, return Clear) ]

let show_lru_op = function
  | Insert (k, v, w) -> Printf.sprintf "insert %d %d w%d" k v w
  | Insert_oversized (k, w) -> Printf.sprintf "insert-oversized %d +%d" k w
  | Find k -> Printf.sprintf "find %d" k
  | Peek k -> Printf.sprintf "peek %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Update_weight (k, w) -> Printf.sprintf "update-weight %d w%d" k w
  | Clear -> "clear"

let prop_lru_model =
  qtest ~count:500 "lru = reference recency list"
    QCheck.(
      pair (int_range 1 150)
        (make
           ~print:(fun ops -> String.concat "; " (List.map show_lru_op ops))
           Gen.(list_size (1 -- 300) lru_op_gen)))
    (fun (capacity, ops) ->
      let c = Lru.create ~capacity in
      let m =
        { Lru_model.capacity; entries = []; hits = 0; misses = 0;
          evictions = 0 }
      in
      List.for_all
        (fun op ->
          let result_agrees =
            match op with
            | Insert (k, v, w) ->
              Lru.insert c k v ~weight:w;
              Lru_model.insert m k v w;
              true
            | Insert_oversized (k, w) ->
              Lru.insert c k (-1) ~weight:(capacity + w);
              Lru_model.insert m k (-1) (capacity + w);
              true
            | Find k -> Lru.find c k = Lru_model.find m k
            | Peek k ->
              Lru.peek c k = Option.map fst (List.assoc_opt k m.entries)
            | Mem k -> Lru.mem c k = List.mem_assoc k m.entries
            | Remove k ->
              Lru.remove c k;
              m.entries <- List.remove_assoc k m.entries;
              true
            | Update_weight (k, w) ->
              Lru.update_weight c k ~weight:w;
              Lru_model.update_weight m k w;
              true
            | Clear ->
              Lru.clear c;
              m.entries <- [];
              true
          in
          result_agrees
          && Lru.hits c = m.hits
          && Lru.misses c = m.misses
          && Lru.evictions c = m.evictions
          && Lru.used c = Lru_model.used m
          && Lru.length c = List.length m.entries
          && List.rev (Lru.fold c (fun acc k v -> (k, v) :: acc) [])
             = List.map (fun (k, (v, _)) -> (k, v)) m.entries)
        ops)

(* ---------- Rng / Dist ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in bounds" true (v >= 0 && v < 17)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 11 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 100 Fun.id) sorted

let test_dist_uniform_bounds () =
  let d = Dist.uniform ~seed:3 100 in
  for _ = 1 to 10_000 do
    let v = Dist.next d in
    Alcotest.(check bool) "uniform in range" true (v >= 0 && v < 100)
  done

let test_dist_zipf_skew () =
  let d = Dist.zipfian ~seed:5 1000 in
  let counts = Array.make 1000 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Dist.next d in
    counts.(v) <- counts.(v) + 1
  done;
  let head = counts.(0) + counts.(1) + counts.(2) in
  Alcotest.(check bool) "top-3 keys take >15%" true
    (float_of_int head /. float_of_int n > 0.15)

let test_dist_zipf_bounds () =
  let d = Dist.scrambled_zipfian ~seed:5 997 in
  for _ = 1 to 20_000 do
    let v = Dist.next d in
    Alcotest.(check bool) "zipf in range" true (v >= 0 && v < 997)
  done

let test_dist_scrambled_spread () =
  let d = Dist.scrambled_zipfian ~seed:5 1000 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let v = Dist.next d in
    counts.(v) <- counts.(v) + 1
  done;
  let head = counts.(0) + counts.(1) + counts.(2) in
  Alcotest.(check bool) "scrambled head not dominant" true (head < 5_000)

let test_dist_latest_favours_recent () =
  let d = Dist.latest ~seed:5 1000 in
  let recent = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Dist.next d >= 900 then incr recent
  done;
  Alcotest.(check bool) "top decile gets most draws" true
    (float_of_int !recent /. float_of_int n > 0.5)

let test_dist_grow () =
  let d = Dist.latest ~seed:9 10 in
  Dist.set_item_count d 1000;
  let seen_big = ref false in
  for _ = 1 to 5000 do
    if Dist.next d > 10 then seen_big := true
  done;
  Alcotest.(check bool) "draws reach grown keyspace" true !seen_big

let () =
  Alcotest.run "util"
    [
      ( "varint",
        [
          Alcotest.test_case "roundtrip" `Quick test_varint_roundtrip;
          Alcotest.test_case "sequence" `Quick test_varint_sequence;
          Alcotest.test_case "truncated" `Quick test_varint_truncated;
          Alcotest.test_case "fixed" `Quick test_fixed_roundtrip;
          Alcotest.test_case "length-prefixed" `Quick test_length_prefixed;
          prop_varint;
        ] );
      ( "crc32c",
        [
          Alcotest.test_case "known value" `Quick test_crc_known;
          Alcotest.test_case "slice" `Quick test_crc_slice;
          Alcotest.test_case "mask roundtrip" `Quick test_crc_mask_roundtrip;
          prop_crc_differs;
          prop_crc_sliced_matches_bytewise;
          prop_crc_chains;
          Alcotest.test_case "out of bounds" `Quick test_crc_out_of_bounds;
        ] );
      ( "murmur3",
        [
          Alcotest.test_case "deterministic" `Quick test_murmur_deterministic;
          Alcotest.test_case "bit spread" `Quick test_murmur_spread;
          Alcotest.test_case "known answers" `Quick test_murmur_known_answers;
          prop_murmur_range_matches_copy;
          Alcotest.test_case "range out of bounds" `Quick
            test_murmur_range_out_of_bounds;
          Alcotest.test_case "trailing ones" `Quick test_trailing_ones;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "interleaved" `Quick
            test_histogram_interleaved_sorting;
          Alcotest.test_case "nearest-rank edges" `Quick
            test_histogram_percentile_edges;
          Alcotest.test_case "growth keeps sort live-only" `Quick
            test_histogram_growth_sort;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic eviction" `Quick test_lru_basic;
          Alcotest.test_case "replace" `Quick test_lru_replace;
          Alcotest.test_case "oversized" `Quick test_lru_oversized;
          Alcotest.test_case "remove" `Quick test_lru_remove;
          Alcotest.test_case "fold" `Quick test_lru_fold;
          prop_lru_capacity;
          prop_lru_model;
          Alcotest.test_case "freed slots release values" `Quick
            test_lru_releases_values;
        ] );
      ( "rng-dist",
        [
          Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "uniform bounds" `Quick test_dist_uniform_bounds;
          Alcotest.test_case "zipf skew" `Quick test_dist_zipf_skew;
          Alcotest.test_case "zipf bounds" `Quick test_dist_zipf_bounds;
          Alcotest.test_case "scrambled spread" `Quick
            test_dist_scrambled_spread;
          Alcotest.test_case "latest recency" `Quick
            test_dist_latest_favours_recent;
          Alcotest.test_case "grow keyspace" `Quick test_dist_grow;
        ] );
    ]
