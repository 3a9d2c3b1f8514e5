(** Seeded input generation.

    Every input of a round — keys, values, the operation sequence and the
    answer each read must return — is built here, before timing starts,
    from the workload name and the seed alone: the same seed gives
    byte-identical inputs.  The expected answers come from an oracle that
    replays the operation sequence in its global order, which is also the
    order the store executes it in at any client count. *)

module Rng = Pdb_util.Rng
module Dist = Pdb_util.Dist

(** Keys in the data set.  At 1040 user bytes per entry the data set is
    52 MB, 6.2x the profiles' 8 MB block cache. *)
let n_keys = 50_000

(** Operations in one timed phase of the read and mixed workloads (the
    fill's timed phase is the fill itself). *)
let n_ops = 30_000

let value_bytes = 1024

(** Longest short scan of the mixed workloads, in keys. *)
let max_scan = 20

(* Keys are 16 bytes.  The data set holds the even slots; the odd slots
   are the absent keys, interleaved with the present ones. *)
let key_of slot = Printf.sprintf "key%013d" slot
let present j = key_of (2 * j)
let absent j = key_of ((2 * j) + 1)

type op =
  | Put of string * string
  | Get of string * string option  (** key, expected answer *)
  | Scan of string * string array * string array
      (** start key, expected keys, expected values *)

type t = {
  engine : Pdb_harness.Stores.engine;
  clients : int;
  preload : (string * string) array;  (** written before the timed phase *)
  ops : op array;  (** the timed phase, in global order *)
  final : string array;
      (** expected value of key [present j] at phase end, by [j] *)
}

let workloads =
  [ "fillrandom"; "readrandom"; "ycsb_mixed"; "ycsb_mixed_leveldb" ]

(* A 1 MB pool of random bytes; each value is a slice of it stamped with
   its key and version, so no two writes carry the same value. *)
let value_pool rng = Rng.bytes rng (1 lsl 20)

let make_value pool rng ~key ~version =
  let b = Bytes.create value_bytes in
  let off = Rng.int rng (String.length pool - value_bytes) in
  Bytes.blit_string pool off b 0 value_bytes;
  Bytes.blit_string key 0 b 0 (String.length key);
  Bytes.blit_string (Printf.sprintf "%08d" version) 0 b (String.length key) 8;
  Bytes.unsafe_to_string b

(* The fill: every key once, in a seeded random order. *)
let fill rng pool =
  let order = Array.init n_keys Fun.id in
  Rng.shuffle rng order;
  let final = Array.make n_keys "" in
  let puts =
    Array.map
      (fun j ->
        let key = present j in
        let v = make_value pool rng ~key ~version:0 in
        final.(j) <- v;
        (key, v))
      order
  in
  (puts, final)

(* Uniform point gets over the keyspace, one in ten for an absent key. *)
let read_ops rng final =
  Array.init n_ops (fun _ ->
      let j = Rng.int rng n_keys in
      if Rng.int rng 10 = 0 then Get (absent j, None)
      else Get (present j, Some final.(j)))

(* Zipfian keys (YCSB's scrambled distribution): 50% update, 40% get,
   10% short scan.  [cur] tracks every key's value as of each op. *)
let mixed_ops rng pool ~seed cur =
  let zipf = Dist.scrambled_zipfian ~seed n_keys in
  let version = ref 0 in
  Array.init n_ops (fun _ ->
      let j = Dist.next zipf in
      let r = Rng.int rng 100 in
      if r < 50 then begin
        incr version;
        let key = present j in
        let v = make_value pool rng ~key ~version:!version in
        cur.(j) <- v;
        Put (key, v)
      end
      else if r < 90 then Get (present j, Some cur.(j))
      else
        let len = min (1 + Rng.int rng max_scan) (n_keys - j) in
        Scan
          ( present j,
            Array.init len (fun i -> present (j + i)),
            Array.init len (fun i -> cur.(j + i)) ))

(** [make workload ~seed] builds a round's inputs.
    @raise Invalid_argument on an unknown workload name. *)
let make workload ~seed =
  let rng = Rng.create seed in
  let pool = value_pool rng in
  let puts, final = fill rng pool in
  match workload with
  | "fillrandom" ->
    {
      engine = Pdb_harness.Stores.Pebblesdb;
      clients = 1;
      preload = [||];
      ops = Array.map (fun (k, v) -> Put (k, v)) puts;
      final;
    }
  | "readrandom" ->
    { engine = Pdb_harness.Stores.Pebblesdb; clients = 1; preload = puts;
      ops = read_ops rng final; final }
  | "ycsb_mixed" | "ycsb_mixed_leveldb" ->
    let cur = Array.copy final in
    let ops = mixed_ops rng pool ~seed:(seed + 1) cur in
    {
      engine =
        (if workload = "ycsb_mixed" then Pdb_harness.Stores.Pebblesdb
         else Pdb_harness.Stores.Leveldb);
      clients = 4;
      preload = puts;
      ops;
      final = cur;
    }
  | w -> invalid_arg ("unknown workload " ^ w)
