(* Tests for the bloom filter and skip list substrates. *)

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---------- Bloom ---------- *)

module Bloom = Pdb_bloom.Bloom

let test_bloom_no_false_negatives () =
  let b = Bloom.create 1000 in
  for i = 0 to 999 do
    Bloom.add b (Printf.sprintf "key%d" i)
  done;
  for i = 0 to 999 do
    Alcotest.(check bool) "member" true (Bloom.mem b (Printf.sprintf "key%d" i))
  done

let test_bloom_false_positive_rate () =
  let b = Bloom.create ~bits_per_key:10 10_000 in
  for i = 0 to 9_999 do
    Bloom.add b (Printf.sprintf "key%d" i)
  done;
  let fp = ref 0 in
  let probes = 10_000 in
  for i = 0 to probes - 1 do
    if Bloom.mem b (Printf.sprintf "other%d" i) then incr fp
  done;
  let rate = float_of_int !fp /. float_of_int probes in
  Alcotest.(check bool)
    (Printf.sprintf "fp rate %.4f < 0.03" rate)
    true (rate < 0.03)

let test_bloom_encode_roundtrip () =
  let b = Bloom.create 100 in
  List.iter (Bloom.add b) [ "a"; "b"; "c" ];
  let b' = Bloom.decode (Bloom.encode b) in
  List.iter
    (fun k -> Alcotest.(check bool) ("member " ^ k) true (Bloom.mem b' k))
    [ "a"; "b"; "c" ];
  check Alcotest.int "nkeys" 3 (Bloom.nkeys b')

let test_bloom_empty () =
  let b = Bloom.create 10 in
  Alcotest.(check bool) "empty filter rejects" false (Bloom.mem b "anything")

let prop_bloom_membership =
  qtest "no false negatives (random keys)"
    QCheck.(list string)
    (fun keys ->
      let b = Bloom.create (max 1 (List.length keys)) in
      List.iter (Bloom.add b) keys;
      List.for_all (Bloom.mem b) keys)

let prop_bloom_add_range_matches_add =
  (* the filter bits of an in-place add equal those of adding the copy *)
  qtest ~count:300 "add_range = add of the copy (offsets, lengths 0-40)"
    QCheck.(list (triple (string_of_size Gen.(0 -- 60)) small_nat small_nat))
    (fun cases ->
      let by_range = Bloom.create 64 and by_copy = Bloom.create 64 in
      List.iter
        (fun (s, a, b) ->
          let n = String.length s in
          let pos = if n = 0 then 0 else a mod (n + 1) in
          let len = min 40 (b mod (n - pos + 1)) in
          Bloom.add_range by_range s pos len;
          Bloom.add by_copy (String.sub s pos len))
        cases;
      String.equal (Bloom.encode by_range) (Bloom.encode by_copy))

let test_bloom_add_range_out_of_bounds () =
  let b = Bloom.create 10 in
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Murmur3.hash32_range") (fun () ->
      Bloom.add_range b "abcdef" 3 4);
  check Alcotest.int "nothing added" 0 (Bloom.nkeys b)

(* The probe positions as defined: probe [i] of a key hashed to [h1]/[h2]
   is [((h1 + i * h2) land max_int) mod nbits]. *)
let reference_probes ~k ~nbits h1 h2 =
  List.init k (fun i -> ((h1 + (i * h2)) land max_int) mod nbits)

(* An encoded filter of [nbytes] bytes and [k] probes with exactly the bits
   at [positions] set. *)
let encoded_with ~k ~nbytes positions =
  let bits = Bytes.make nbytes '\000' in
  List.iter
    (fun p ->
      Bytes.set bits (p / 8)
        (Char.chr (Char.code (Bytes.get bits (p / 8)) lor (1 lsl (p mod 8)))))
    positions;
  let buf = Buffer.create (nbytes + 8) in
  Pdb_util.Varint.put_uvarint buf k;
  Pdb_util.Varint.put_uvarint buf 0;
  Pdb_util.Varint.put_length_prefixed buf (Bytes.to_string bits);
  Buffer.contents buf

let prop_bloom_stepped_probes =
  (* mem_hashed finds a key exactly when every reference position is set:
     with all of them set it answers true, with any one cleared false *)
  qtest ~count:500 "stepped probes = ((h1 + i*h2) land max_int) mod nbits"
    QCheck.(
      quad
        (make Gen.(int_bound ((1 lsl 32) - 1)))
        (make Gen.(int_bound ((1 lsl 32) - 1)))
        (make Gen.(1 -- 300))
        (make Gen.(1 -- 30)))
    (fun (h1, h2, nbytes, k) ->
      let refs = reference_probes ~k ~nbits:(nbytes * 8) h1 h2 in
      let mem positions =
        Bloom.mem_hashed (Bloom.decode (encoded_with ~k ~nbytes positions)) h1
          h2
      in
      mem refs
      && List.for_all
           (fun p -> not (mem (List.filter (fun q -> q <> p) refs)))
           refs)

(* The probe count and bit array of an encoded filter. *)
let decode_fields enc =
  let k, p = Pdb_util.Varint.get_uvarint enc 0 in
  let _nkeys, p = Pdb_util.Varint.get_uvarint enc p in
  (k, fst (Pdb_util.Varint.get_length_prefixed enc p))

let prop_bloom_add_sets_reference_bits =
  qtest ~count:300 "add sets the reference probe bits"
    QCheck.(pair (string_of_size Gen.(0 -- 30)) (make Gen.(1 -- 5000)))
    (fun (key, n) ->
      let b = Bloom.create n in
      Bloom.add b key;
      let k, bits = decode_fields (Bloom.encode b) in
      let nbytes = String.length bits and len = String.length key in
      let refs =
        reference_probes ~k ~nbits:(nbytes * 8) (Bloom.hash1 key 0 len)
          (Bloom.hash2 key 0 len)
      in
      String.equal bits (snd (decode_fields (encoded_with ~k ~nbytes refs))))

(* ---------- Skiplist ---------- *)

module Skiplist = Pdb_skiplist.Skiplist

let make_list () = Skiplist.create ~compare:String.compare "" ""

let test_skiplist_insert_find () =
  let sl = make_list () in
  Skiplist.insert sl "b" "2";
  Skiplist.insert sl "a" "1";
  Skiplist.insert sl "c" "3";
  check Alcotest.(option string) "find a" (Some "1") (Skiplist.find sl "a");
  check Alcotest.(option string) "find c" (Some "3") (Skiplist.find sl "c");
  check Alcotest.(option string) "missing" None (Skiplist.find sl "zz");
  check Alcotest.int "length" 3 (Skiplist.length sl)

let test_skiplist_order () =
  let sl = make_list () in
  let keys = [ "delta"; "alpha"; "echo"; "charlie"; "bravo" ] in
  List.iter (fun k -> Skiplist.insert sl k k) keys;
  let got = List.map fst (Skiplist.to_list sl) in
  check
    Alcotest.(list string)
    "sorted"
    [ "alpha"; "bravo"; "charlie"; "delta"; "echo" ]
    got

let test_skiplist_seek () =
  let sl = make_list () in
  List.iter (fun k -> Skiplist.insert sl k k) [ "b"; "d"; "f" ];
  check
    Alcotest.(option (pair string string))
    "seek between" (Some ("d", "d")) (Skiplist.seek sl "c");
  check
    Alcotest.(option (pair string string))
    "seek exact" (Some ("d", "d")) (Skiplist.seek sl "d");
  check
    Alcotest.(option (pair string string))
    "seek past end" None (Skiplist.seek sl "g");
  check
    Alcotest.(option (pair string string))
    "seek before start" (Some ("b", "b")) (Skiplist.seek sl "a")

let test_skiplist_min_max () =
  let sl = make_list () in
  check Alcotest.(option (pair string string)) "min empty" None
    (Skiplist.min_entry sl);
  check Alcotest.(option (pair string string)) "max empty" None
    (Skiplist.max_entry sl);
  List.iter (fun k -> Skiplist.insert sl k k) [ "m"; "a"; "z" ];
  check
    Alcotest.(option (pair string string))
    "min" (Some ("a", "a")) (Skiplist.min_entry sl);
  check
    Alcotest.(option (pair string string))
    "max" (Some ("z", "z")) (Skiplist.max_entry sl)

let test_skiplist_duplicates_kept () =
  let sl = make_list () in
  Skiplist.insert sl "k" "1";
  Skiplist.insert sl "k" "2";
  check Alcotest.int "both kept" 2 (Skiplist.length sl)

let test_skiplist_cursor () =
  let sl = make_list () in
  List.iter (fun k -> Skiplist.insert sl k k) [ "a"; "b"; "c" ];
  let c = Skiplist.Cursor.make sl in
  Skiplist.Cursor.seek_to_first c;
  Alcotest.(check bool) "valid" true (Skiplist.Cursor.valid c);
  check Alcotest.string "first" "a" (fst (Skiplist.Cursor.entry c));
  Skiplist.Cursor.next c;
  check Alcotest.string "second" "b" (fst (Skiplist.Cursor.entry c));
  Skiplist.Cursor.seek c "bz";
  check Alcotest.string "seek lands on c" "c" (fst (Skiplist.Cursor.entry c));
  Skiplist.Cursor.next c;
  Alcotest.(check bool) "exhausted" false (Skiplist.Cursor.valid c)

let prop_skiplist_model =
  (* The skip list must agree with a sorted-map model on membership and
     order under random unique-key insertions. *)
  qtest "matches sorted-map model"
    QCheck.(list (pair (string_of_size (QCheck.Gen.return 6)) small_int))
    (fun pairs ->
      let module M = Map.Make (String) in
      let model =
        List.fold_left (fun m (k, v) -> M.add k v m) M.empty pairs
      in
      let sl =
        Skiplist.create ~compare:String.compare "" 0
      in
      M.iter (fun k v -> Skiplist.insert sl k v) model;
      M.for_all (fun k v -> Skiplist.find sl k = Some v) model
      && List.map fst (Skiplist.to_list sl) = List.map fst (M.bindings model))

let () =
  Alcotest.run "bloom-skiplist"
    [
      ( "bloom",
        [
          Alcotest.test_case "no false negatives" `Quick
            test_bloom_no_false_negatives;
          Alcotest.test_case "fp rate" `Quick test_bloom_false_positive_rate;
          Alcotest.test_case "encode roundtrip" `Quick
            test_bloom_encode_roundtrip;
          Alcotest.test_case "empty" `Quick test_bloom_empty;
          prop_bloom_membership;
          prop_bloom_add_range_matches_add;
          Alcotest.test_case "add_range out of bounds" `Quick
            test_bloom_add_range_out_of_bounds;
          prop_bloom_stepped_probes;
          prop_bloom_add_sets_reference_bits;
        ] );
      ( "skiplist",
        [
          Alcotest.test_case "insert/find" `Quick test_skiplist_insert_find;
          Alcotest.test_case "order" `Quick test_skiplist_order;
          Alcotest.test_case "seek" `Quick test_skiplist_seek;
          Alcotest.test_case "min/max" `Quick test_skiplist_min_max;
          Alcotest.test_case "duplicates" `Quick test_skiplist_duplicates_kept;
          Alcotest.test_case "cursor" `Quick test_skiplist_cursor;
          prop_skiplist_model;
        ] );
    ]
