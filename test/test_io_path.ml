(* Tests for the copy-free simulated IO path: the extent-backed Env against
   a flat-bytes reference model, the copy-free read contract, strict block
   decoding, and golden on-disk digests of whole stores. *)

module Env = Pdb_simio.Env
module Device = Pdb_simio.Device
module Clock = Pdb_simio.Clock
module Io_stats = Pdb_simio.Io_stats
module Rng = Pdb_util.Rng
module Block = Pdb_sstable.Block
module Dyn = Pdb_kvs.Store_intf
module Stores = Pdb_harness.Stores

let check = Alcotest.check

(* ---------- flat-bytes reference model of Env ---------- *)

(* Every file is one [Bytes.t] grown by doubling, with the IO accounting,
   clock charges, fault ticks and torn-crash RNG draws of the environment
   it models.  It shares [Io_stats], [Clock] and [Device] with Env and
   nothing else. *)
module Flat = struct
  type plan = {
    rng : Rng.t;
    mutable countdown : int;
    mutable armed : bool;
    torn_writes : bool;
    garbage_tail_prob : float;
    block_bytes : int;
    mutable ticks : int;
    mutable fired_at : string option;
    mutable torn_files : int;
  }

  type file = {
    mutable data : Bytes.t;
    mutable len : int;
    mutable synced : int;
    mutable ever_synced : bool;
  }

  type t = {
    files : (string, file) Hashtbl.t;
    stats : Io_stats.t;
    device : Device.t;
    clock : Clock.t;
    mutable plan : plan option;
  }

  type writer = { env : t; name : string; file : file }

  exception Crashed of string

  let create () =
    { files = Hashtbl.create 8; stats = Io_stats.create ();
      device = Device.ssd (); clock = Clock.create (); plan = None }

  let set_plan t ~torn_writes ~garbage_tail_prob ~block_bytes ~seed
      ~crash_after =
    t.plan <-
      Some
        { rng = Rng.create seed; countdown = crash_after;
          armed = crash_after > 0; torn_writes; garbage_tail_prob;
          block_bytes; ticks = 0; fired_at = None; torn_files = 0 }

  let tick t label =
    match t.plan with
    | Some p when p.armed ->
      p.ticks <- p.ticks + 1;
      p.countdown <- p.countdown - 1;
      if p.countdown <= 0 then begin
        p.armed <- false;
        p.fired_at <- Some label;
        raise (Crashed label)
      end
    | _ -> ()

  let empty ever_synced =
    { data = Bytes.create 16; len = 0; synced = 0; ever_synced }

  let find t name =
    match Hashtbl.find_opt t.files name with
    | Some f -> f
    | None -> raise (Sys_error (name ^ ": no such simulated file"))

  let reserve f needed =
    let cap = Bytes.length f.data in
    if needed > cap then begin
      let bigger = Bytes.make (max needed (2 * cap)) '\000' in
      Bytes.blit f.data 0 bigger 0 f.len;
      f.data <- bigger
    end

  let create_file t name =
    let ever_synced =
      match Hashtbl.find_opt t.files name with
      | Some f -> f.ever_synced
      | None -> false
    in
    let file = empty ever_synced in
    Hashtbl.replace t.files name file;
    t.stats.files_created <- t.stats.files_created + 1;
    tick t ("create:" ^ name);
    { env = t; name; file }

  let append w s =
    let n = String.length s in
    if n > 0 then begin
      let f = w.file in
      reserve f (f.len + n);
      Bytes.blit_string s 0 f.data f.len n;
      f.len <- f.len + n;
      w.env.stats.bytes_written <- w.env.stats.bytes_written + n;
      w.env.stats.write_ops <- w.env.stats.write_ops + 1;
      Clock.advance w.env.clock (Device.write_cost w.env.device ~bytes:n);
      tick w.env ("append:" ^ w.name)
    end

  let sync w =
    w.file.synced <- w.file.len;
    w.file.ever_synced <- true;
    w.env.stats.syncs <- w.env.stats.syncs + 1;
    Clock.advance w.env.clock (Device.sync_cost w.env.device);
    tick w.env ("sync:" ^ w.name)

  let write_at t name ~pos s =
    let f =
      match Hashtbl.find_opt t.files name with
      | Some f -> f
      | None ->
        let f = empty false in
        Hashtbl.replace t.files name f;
        t.stats.files_created <- t.stats.files_created + 1;
        f
    in
    let n = String.length s in
    reserve f (pos + n);
    if pos > f.len then Bytes.fill f.data f.len (pos - f.len) '\000';
    Bytes.blit_string s 0 f.data pos n;
    f.len <- max f.len (pos + n);
    f.synced <- f.len;
    f.ever_synced <- true;
    t.stats.bytes_written <- t.stats.bytes_written + n;
    t.stats.write_ops <- t.stats.write_ops + 1;
    Clock.advance t.clock
      (Device.read_cost t.device ~hint:Device.Random_read ~bytes:0
       +. Device.write_cost t.device ~bytes:n);
    tick t ("write_at:" ^ name)

  let range f ~pos ~len =
    if pos < 0 || len < 0 || pos + len > f.len then invalid_arg "range";
    Bytes.sub_string f.data pos len

  let peek t name ~pos ~len = range (find t name) ~pos ~len

  let read t name ~pos ~len ~hint =
    let f = find t name in
    let s = range f ~pos ~len in
    t.stats.bytes_read <- t.stats.bytes_read + len;
    t.stats.read_ops <- t.stats.read_ops + 1;
    Clock.advance t.clock (Device.read_cost t.device ~hint ~bytes:len);
    s

  let delete t name =
    if Hashtbl.mem t.files name then begin
      Hashtbl.remove t.files name;
      t.stats.files_deleted <- t.stats.files_deleted + 1;
      tick t ("delete:" ^ name)
    end

  let rename t ~src ~dst =
    let f = find t src in
    Hashtbl.remove t.files src;
    Hashtbl.replace t.files dst f;
    f.synced <- f.len;
    f.ever_synced <- true;
    t.stats.syncs <- t.stats.syncs + 1;
    Clock.advance t.clock (Device.sync_cost t.device);
    tick t ("rename:" ^ dst)

  let names t =
    List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) t.files [])

  let total_file_bytes t = Hashtbl.fold (fun _ f acc -> acc + f.len) t.files 0

  let crash t =
    let torn =
      match t.plan with Some p when p.torn_writes -> Some p | _ -> None
    in
    List.iter
      (fun name ->
        let f = Hashtbl.find t.files name in
        let keep_file, base =
          if f.ever_synced then (true, f.synced)
          else
            match torn with
            | Some p -> (Rng.bool p.rng, 0)
            | None -> (false, 0)
        in
        if not keep_file then Hashtbl.remove t.files name
        else begin
          let unsynced = f.len - base in
          (match torn with
           | Some p when unsynced > 0 ->
             let nblocks = (unsynced + p.block_bytes - 1) / p.block_bytes in
             let keep_blocks = Rng.int p.rng (nblocks + 1) in
             let keep = min unsynced (keep_blocks * p.block_bytes) in
             f.len <- base + keep;
             if keep > 0 then begin
               p.torn_files <- p.torn_files + 1;
               if Rng.float p.rng < p.garbage_tail_prob then begin
                 let lo = max base (f.len - p.block_bytes) in
                 let n = f.len - lo in
                 let flips = 1 + Rng.int p.rng (min 8 n) in
                 for _ = 1 to flips do
                   let i = lo + Rng.int p.rng n in
                   let bit = 1 lsl Rng.int p.rng 8 in
                   Bytes.set f.data i
                     (Char.chr (Char.code (Bytes.get f.data i) lxor bit))
                 done
               end
             end
           | _ -> f.len <- base);
          f.synced <- f.len;
          f.ever_synced <- true
        end)
      (names t);
    t.plan <- None
end

(* ---------- random op sequences: Env vs. Flat ---------- *)

type op =
  | Create of int
  | Append of int * string
  | Append_buffer of int * string
  | Write_at of int * int * string  (** file, position past EOF allowed *)
  | Read of int * int * int
  | Read_view of int * int * int
  | Peek of int * int * int
  | Sync of int
  | Close of int
  | Rename of int * int
  | Delete of int
  | Crash
  | Checkpoint  (** compare every file's contents *)

let file_name i = "f" ^ string_of_int i

let show_op = function
  | Create i -> Printf.sprintf "create %d" i
  | Append (i, s) -> Printf.sprintf "append %d %d" i (String.length s)
  | Append_buffer (i, s) ->
    Printf.sprintf "append_buffer %d %d" i (String.length s)
  | Write_at (i, p, s) ->
    Printf.sprintf "write_at %d @%d %d" i p (String.length s)
  | Read (i, p, l) -> Printf.sprintf "read %d @%d %d" i p l
  | Read_view (i, p, l) -> Printf.sprintf "read_view %d @%d %d" i p l
  | Peek (i, p, l) -> Printf.sprintf "peek %d @%d %d" i p l
  | Sync i -> Printf.sprintf "sync %d" i
  | Close i -> Printf.sprintf "close %d" i
  | Rename (a, b) -> Printf.sprintf "rename %d %d" a b
  | Delete i -> Printf.sprintf "delete %d" i
  | Crash -> "crash"
  | Checkpoint -> "checkpoint"

let gen_op =
  let open QCheck.Gen in
  let file = int_bound 3 in
  (* now and then an append long enough to push a pending tail past its
     96 KB limit, or to be an extent by itself *)
  let data =
    frequency
      [ (30, string_size ~gen:printable (0 -- 40));
        (1, map2 String.make (20_000 -- 110_000) printable) ]
  in
  let small = string_size ~gen:printable (1 -- 6) in
  (* read positions near the start, and around where big appends end *)
  let pos = frequency [ (4, 0 -- 150); (1, 90_000 -- 230_000) ] in
  frequency
    [ (2, map (fun i -> Create i) file);
      (6, map2 (fun i s -> Append (i, s)) file data);
      (3, map2 (fun i s -> Append_buffer (i, s)) file data);
      (3, map3 (fun i p s -> Write_at (i, p, s)) file (0 -- 150) data);
      (* short writes inside earlier ones split and re-merge extents *)
      (3, map3 (fun i p s -> Write_at (i, p, s)) file (0 -- 60) small);
      (3, map3 (fun i p l -> Read (i, p, l)) file pos (0 -- 60));
      (2, map3 (fun i p l -> Read_view (i, p, l)) file pos (0 -- 60));
      (2, map3 (fun i p l -> Peek (i, p, l)) file pos (0 -- 60));
      (3, map (fun i -> Sync i) file);
      (2, map (fun i -> Close i) file);
      (1, map2 (fun a b -> Rename (a, b)) file file);
      (1, map (fun i -> Delete i) file);
      (1, return Crash);
      (1, return Checkpoint) ]

(* A plan: seed, crash point (0 = none), torn writes, garbling
   probability, block size. *)
type plan_spec = int * int * bool * float * int

let gen_case =
  let open QCheck.Gen in
  pair
    (opt
       (map
          (fun ((seed, crash_after), (torn, garble, block)) ->
            ((seed, crash_after, torn, garble, block) : plan_spec))
          (pair (pair nat (0 -- 80))
             (triple bool (oneofl [ 0.0; 0.5; 1.0 ]) (oneofl [ 4; 8; 16 ])))))
    (list_size (0 -- 80) gen_op)

let print_case (plan, ops) =
  (match plan with
   | None -> "no plan"
   | Some (seed, after, torn, g, b) ->
     Printf.sprintf "plan seed=%d crash_after=%d torn=%b garble=%g block=%d"
       seed after torn g b)
  ^ "\n" ^ String.concat "\n" (List.map show_op ops)

(* The observable outcome of one op: a returned string, or which kind of
   exception it raised. *)
let outcome f =
  match f () with
  | s -> "ok:" ^ s
  | exception Invalid_argument _ -> "invalid_argument"
  | exception Sys_error _ -> "sys_error"
  | exception Env.Injected_crash l -> "crash:" ^ l
  | exception Flat.Crashed l -> "crash:" ^ l

let unit_outcome f = outcome (fun () -> f (); "")

let run_case (plan, ops) =
  let env = Env.create () and model = Flat.create () in
  let install (seed, after, torn, g, b) =
    let crash_after = if after = 0 then max_int else after in
    Env.set_fault_plan env
      (Env.Fault_plan.create ~torn_writes:torn ~garbage_tail_prob:g
         ~block_bytes:b ~seed ~crash_after ());
    Flat.set_plan model ~torn_writes:torn ~garbage_tail_prob:g ~block_bytes:b
      ~seed ~crash_after
  in
  Option.iter install plan;
  let writers = Array.make 4 None and mwriters = Array.make 4 None in
  (* whether writer [i]'s size is compared: a delete or a create over a
     name drops that file's pending tail, so only while writer [i]'s file
     is still named [file_name i] and neither happened to it *)
  let sized = Array.make 4 false in
  let buf = Buffer.create 64 in
  let with_writer i f g =
    match (writers.(i), mwriters.(i)) with
    | Some w, Some mw ->
      (unit_outcome (fun () -> f w), unit_outcome (fun () -> g mw))
    | _ -> ("skip", "skip")
  in
  let failures = ref [] in
  let fail step what =
    failures := Printf.sprintf "step %d: %s" step what :: !failures
  in
  (* every file's contents: this materializes every pending tail, so it
     runs only at checkpoints and at the end *)
  let compare_contents step =
    let files name =
      (name, Env.peek env name ~pos:0 ~len:(Env.file_size env name))
    in
    let mfiles name =
      let f = Flat.find model name in
      (name, Bytes.sub_string f.Flat.data 0 f.Flat.len)
    in
    if
      List.map files (List.sort compare (Env.list env))
      <> List.map mfiles (Flat.names model)
    then fail step "contents differ"
  in
  (* the observers that leave pending tails alone, after every step *)
  let compare_state step =
    let plan_obs () =
      match Env.fault_plan env with
      | Some p ->
        Some
          ( Env.Fault_plan.ticks p,
            Env.Fault_plan.fired_at p,
            Env.Fault_plan.torn_files p )
      | None -> None
    and mplan_obs () =
      match model.Flat.plan with
      | Some p -> Some (p.Flat.ticks, p.Flat.fired_at, p.Flat.torn_files)
      | None -> None
    in
    if List.sort compare (Env.list env) <> Flat.names model then
      fail step "file names differ";
    if Env.total_file_bytes env <> Flat.total_file_bytes model then
      fail step "total bytes differ";
    Array.iteri
      (fun i w ->
        match (w, mwriters.(i)) with
        | Some w, Some mw
          when sized.(i) && Env.writer_size w <> mw.Flat.file.Flat.len ->
          fail step (Printf.sprintf "writer %d size differs" i)
        | _ -> ())
      writers;
    if Io_stats.snapshot (Env.stats env) <> Io_stats.snapshot model.Flat.stats
    then fail step "stats differ";
    if Clock.snapshot (Env.clock env) <> Clock.snapshot model.Flat.clock then
      fail step "clock differs";
    if plan_obs () <> mplan_obs () then fail step "fault ticks differ"
  in
  List.iteri
    (fun step op ->
      let got, want =
        match op with
        | Create i ->
          let name = file_name i in
          sized.(i) <- false;
          ( unit_outcome (fun () ->
                writers.(i) <- Some (Env.create_file env name);
                sized.(i) <- true),
            unit_outcome (fun () ->
                mwriters.(i) <- Some (Flat.create_file model name)) )
        | Append (i, s) ->
          with_writer i (fun w -> Env.append w s) (fun w -> Flat.append w s)
        | Append_buffer (i, s) ->
          with_writer i
            (fun w ->
              Buffer.clear buf;
              Buffer.add_string buf s;
              Env.append_buffer w buf)
            (fun w -> Flat.append w s)
        | Write_at (i, pos, s) ->
          let name = file_name i in
          (* also lands inside, across and past existing extents *)
          ( unit_outcome (fun () -> Env.write_at env name ~pos s),
            unit_outcome (fun () -> Flat.write_at model name ~pos s) )
        | Read (i, pos, len) ->
          let name = file_name i and hint = Device.Random_read in
          ( outcome (fun () -> Env.read env name ~pos ~len ~hint),
            outcome (fun () -> Flat.read model name ~pos ~len ~hint) )
        | Read_view (i, pos, len) ->
          let name = file_name i and hint = Device.Random_read in
          ( outcome (fun () ->
                let s, off = Env.read_view env name ~pos ~len ~hint in
                String.sub s off len),
            outcome (fun () -> Flat.read model name ~pos ~len ~hint) )
        | Peek (i, pos, len) ->
          let name = file_name i in
          ( outcome (fun () -> Env.peek env name ~pos ~len),
            outcome (fun () -> Flat.peek model name ~pos ~len) )
        | Sync i -> with_writer i Env.sync Flat.sync
        | Close i -> with_writer i Env.close ignore
        | Rename (a, b) ->
          let src = file_name a and dst = file_name b in
          Array.fill sized 0 4 false;
          ( unit_outcome (fun () -> Env.rename env ~src ~dst),
            unit_outcome (fun () -> Flat.rename model ~src ~dst) )
        | Delete i ->
          let name = file_name i in
          sized.(i) <- false;
          ( unit_outcome (fun () -> Env.delete env name),
            unit_outcome (fun () -> Flat.delete model name) )
        | Crash ->
          ( unit_outcome (fun () -> Env.crash env),
            unit_outcome (fun () -> Flat.crash model) )
        | Checkpoint ->
          compare_contents step;
          ("", "")
      in
      if got <> want then
        failures :=
          Printf.sprintf "step %d (%s): env %S, model %S" step (show_op op) got
            want
          :: !failures;
      compare_state step)
    ops;
  compare_contents (List.length ops);
  match List.rev !failures with
  | [] -> true
  | first :: _ -> QCheck.Test.fail_report first

let prop_env_matches_flat_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:600
       ~name:"extent Env = flat-bytes model (contents, stats, clock, ticks)"
       (QCheck.make ~print:print_case gen_case)
       run_case)

(* ---------- the copy-free read contract ---------- *)

let test_read_shares_extent () =
  (* a, b and c are appended; a sync materializes a and b as one extent,
     the close materializes c as a second *)
  let env = Env.create () and hint = Device.Random_read in
  let w = Env.create_file env "f" in
  let a = String.make 100 'a' and b = String.make 50 'b'
  and c = String.make 30 'c' in
  Env.append w a;
  Env.append w b;
  Env.sync w;
  Env.append w c;
  Env.close w;
  let sa, oa = Env.read_view env "f" ~pos:0 ~len:100 ~hint in
  let sb, ob = Env.read_view env "f" ~pos:100 ~len:50 ~hint in
  Alcotest.(check bool) "two views inside one extent share its string" true
    (sa == sb);
  check Alcotest.(pair int int) "at their offsets" (0, 100) (oa, ob);
  check Alcotest.string "the views hold the bytes" (a ^ b)
    (String.sub sa oa 100 ^ String.sub sb ob 50);
  check Alcotest.string "read returns equal bytes" a
    (Env.read env "f" ~pos:0 ~len:100 ~hint);
  Alcotest.(check bool) "a whole extent is read without a copy" true
    (Env.read env "f" ~pos:0 ~len:150 ~hint == sa);
  check Alcotest.string "peek of the second extent" c
    (Env.peek env "f" ~pos:150 ~len:30);
  let sx, ox = Env.read_view env "f" ~pos:140 ~len:20 ~hint in
  check Alcotest.(pair string int) "a view across extents is a copy"
    (String.make 10 'b' ^ String.make 10 'c', 0)
    (sx, ox)

let test_reused_tail_starts_empty () =
  (* every way a tail goes back to the free list, then a fresh file whose
     bytes must be only its own *)
  let env = Env.create () and hint = Device.Sequential_read in
  let fresh name data =
    let w = Env.create_file env name in
    Env.append w data;
    Env.read_all env name ~hint
  in
  let w = Env.create_file env "closed" in
  Env.append w "hello";
  Env.close w;
  check Alcotest.string "after a close" "xy" (fresh "b" "xy");
  check Alcotest.string "the closed file kept its bytes" "hello"
    (Env.read_all env "closed" ~hint);
  let w = Env.create_file env "deleted" in
  Env.append w "zzz";
  Env.delete env "deleted";
  check Alcotest.string "after a delete" "q" (fresh "d" "q");
  let w = Env.create_file env "replaced" in
  Env.append w "1234";
  let w' = Env.create_file env "replaced" in
  Env.append w' "5";
  check Alcotest.string "create over a pending file" "5"
    (Env.read_all env "replaced" ~hint);
  check Alcotest.string "after the replacement" "r" (fresh "e" "r");
  (* the writer of the replaced file takes a fresh tail *)
  Env.append w "late";
  check Alcotest.string "a dead writer touches no live file" "5"
    (Env.read_all env "replaced" ~hint)

let test_replaced_extents_leave_old_strings () =
  (* write_at and torn-tail garbling replace extents: a string handed out
     earlier keeps its bytes *)
  let env = Env.create () and hint = Device.Random_read in
  Env.write_at env "pages" ~pos:0 "abcdefgh";
  let before = Env.read env "pages" ~pos:0 ~len:8 ~hint in
  Env.write_at env "pages" ~pos:2 "XY";
  check Alcotest.string "old read unchanged" "abcdefgh" before;
  check Alcotest.string "new contents" "abXYefgh"
    (Env.read env "pages" ~pos:0 ~len:8 ~hint);
  (* the tail "efgh" is now a slice of the old string, at offset 4 *)
  let s, off = Env.read_view env "pages" ~pos:5 ~len:2 ~hint in
  check Alcotest.string "a view inside a slice extent" "fg" (String.sub s off 2);
  let tail = String.make 16 't' in
  let garbled = ref false in
  (* some seed keeps the tail and garbles it; the appended string must
     survive every one of them *)
  for seed = 0 to 9 do
    let env = Env.create () in
    let w = Env.create_file env "log" in
    Env.append w tail;
    Env.set_fault_plan env
      (Env.Fault_plan.create ~garbage_tail_prob:1.0 ~block_bytes:16 ~seed
         ~crash_after:max_int ());
    Env.crash env;
    if Env.exists env "log" && Env.file_size env "log" > 0 then
      garbled :=
        !garbled || Env.read_all env "log" ~hint:Device.Sequential_read <> tail
  done;
  Alcotest.(check bool) "some crash garbles the tail" true !garbled;
  check Alcotest.string "appended string untouched" (String.make 16 't') tail

(* ---------- strict block decoding ---------- *)

let block_of entries =
  let b = Block.Builder.create () in
  List.iter (fun (k, v) -> Block.Builder.add b k v) entries;
  Block.Builder.finish b

(* Set the value_len varint of the entry at [entry_pos] (one-byte
   shared/non_shared/value_len header) to [len]. *)
let with_value_len raw ~entry_pos len =
  let b = Bytes.of_string raw in
  Bytes.set b (entry_pos + 2) (Char.chr len);
  Bytes.to_string b

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_block_overrun_raises () =
  (* one entry "k" -> "v": its value would run into the restart array,
     which still lies inside the block *)
  let raw = with_value_len (block_of [ ("k", "v") ]) ~entry_pos:0 5 in
  let it = Block.iterator ~compare:String.compare (Block.decode raw) in
  Alcotest.(check bool) "seek_to_first raises" true
    (raises_invalid it.Pdb_kvs.Iter.seek_to_first);
  Alcotest.(check bool) "seek raises" true
    (raises_invalid (fun () -> it.Pdb_kvs.Iter.seek "k"));
  (* two entries; the second overruns: reached by next *)
  let raw = block_of [ ("a", "1"); ("b", "2") ] in
  let raw = with_value_len raw ~entry_pos:5 6 in
  let it = Block.iterator ~compare:String.compare (Block.decode raw) in
  it.Pdb_kvs.Iter.seek_to_first ();
  check Alcotest.string "first entry intact" "1" (it.Pdb_kvs.Iter.value ());
  Alcotest.(check bool) "next raises instead of ending" true
    (raises_invalid it.Pdb_kvs.Iter.next)

let test_block_decode_view_offset () =
  let entries =
    List.init 40 (fun i ->
        (Printf.sprintf "key%03d" i, String.make (i mod 7) 'v'))
  in
  let raw = block_of entries in
  let framed = "prefix" ^ raw ^ "suffix" in
  let view = Block.decode_view framed ~pos:6 ~len:(String.length raw) in
  let copy = Block.decode (String.sub framed 6 (String.length raw)) in
  check Alcotest.(list (pair string string)) "entries"
    (Block.entries ~compare:String.compare copy)
    (Block.entries ~compare:String.compare view);
  check Alcotest.(list (pair string string)) "as built" entries
    (Block.entries ~compare:String.compare view);
  check Alcotest.int "size" (Block.size_bytes copy) (Block.size_bytes view);
  let it = Block.iterator ~compare:String.compare view in
  it.Pdb_kvs.Iter.seek "key017";
  check Alcotest.(pair string string) "seek inside the view"
    ("key017", String.make 3 'v')
    (it.Pdb_kvs.Iter.key (), it.Pdb_kvs.Iter.value ());
  Alcotest.(check bool) "a range past the string raises" true
    (raises_invalid (fun () ->
         Block.decode_view framed ~pos:7 ~len:(String.length raw + 6)))

let test_block_invalid_iterator_raises () =
  let blk = Block.decode (block_of [ ("a", "1") ]) in
  let it = Block.iterator ~compare:String.compare blk in
  Alcotest.(check bool) "key before positioning" true
    (raises_invalid it.Pdb_kvs.Iter.key);
  it.Pdb_kvs.Iter.seek_to_first ();
  it.Pdb_kvs.Iter.next ();
  Alcotest.(check bool) "key past the end" true
    (raises_invalid it.Pdb_kvs.Iter.key);
  Alcotest.(check bool) "value past the end" true
    (raises_invalid it.Pdb_kvs.Iter.value)

(* ---------- in-place internal-key order ---------- *)

module Ik = Pdb_kvs.Internal_key

(* The order as defined: user keys by String.compare, then sequence
   descending, then kind descending. *)
let reference_compare a b =
  let c = String.compare (Ik.user_key a) (Ik.user_key b) in
  if c <> 0 then c
  else
    let c = Int.compare (Ik.seq b) (Ik.seq a) in
    if c <> 0 then c
    else Int.compare (Ik.kind_to_int (Ik.kind b)) (Ik.kind_to_int (Ik.kind a))

let prop_ikey_compare_matches_reference =
  let ikey =
    QCheck.Gen.(
      map3
        (fun uk seq del ->
          Ik.encode ~user_key:uk ~seq
            ~kind:(if del then Ik.Deletion else Ik.Value))
        (* a small alphabet with high bytes: shared prefixes, ties and
           bytes above 0x7f all occur *)
        (string_size
           ~gen:(oneofl [ 'a'; 'b'; '\x7f'; '\x80'; '\xff' ])
           (0 -- 20))
        (oneof [ 0 -- 3; return Ik.max_seq ])
        bool)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"Internal_key.compare = reference order"
       (QCheck.make (QCheck.Gen.pair ikey ikey))
       (fun (a, b) -> Ik.compare a b = reference_compare a b))

let test_ikey_compare_asserts_length () =
  Alcotest.(check bool) "a key shorter than its trailer trips the assertion"
    true
    (match Ik.compare "short" (Ik.max_for_lookup "k") with
     | _ -> false
     | exception Assert_failure _ -> true)

(* ---------- golden on-disk digests ---------- *)

(* A fixed-seed fill, overwrite and delete run, then a torn crash, a
   reopen and more writes.  The digest covers every file's name and md5,
   the IO counters and the simulated clock. *)
let golden_run engine =
  let tweak (o : Pdb_kvs.Options.t) =
    { o with Pdb_kvs.Options.memtable_bytes = 16 * 1024 }
  in
  let env = Env.create () in
  let rng = Rng.create 20170 in
  let key i = Printf.sprintf "key%05d" i in
  let phase store n =
    for _ = 1 to n do
      let k = key (Rng.int rng 1500) in
      if Rng.int rng 10 = 0 then store.Dyn.d_delete k
      else store.Dyn.d_put k (Rng.alpha rng (50 + Rng.int rng 300))
    done
  in
  let store = Stores.open_engine ~tweak ~env engine in
  phase store 3000;
  store.Dyn.d_flush ();
  phase store 1500;
  Env.set_fault_plan env
    (Env.Fault_plan.create ~seed:11 ~crash_after:max_int ());
  Env.crash env;
  let store = Stores.open_engine ~tweak ~env engine in
  phase store 1500;
  store.Dyn.d_close ();
  let files =
    List.sort compare (Env.list env)
    |> List.map (fun f ->
           f ^ " "
           ^ Digest.to_hex
               (Digest.string
                  (Env.peek env f ~pos:0 ~len:(Env.file_size env f))))
  in
  let s = Env.stats env in
  let c = Clock.snapshot (Env.clock env) in
  let summary =
    Printf.sprintf
      "written=%d read=%d wops=%d rops=%d syncs=%d fg=%h bg=%h cpu=%h"
      s.Io_stats.bytes_written s.Io_stats.bytes_read s.Io_stats.write_ops
      s.Io_stats.read_ops s.Io_stats.syncs c.Clock.foreground_ns
      c.Clock.background_ns c.Clock.cpu_ns
  in
  ( List.length files,
    Digest.to_hex (Digest.string (String.concat "\n" files)),
    summary )

(* Recorded on the storage layer before extents: file count, digest of
   the "name md5" listing, and the IO/clock summary. *)
let golden =
  [
    (Stores.Pebblesdb, (11, "eb457070fcf3935dbaf33c5fed011230",
      "written=4270564 read=2190321 wops=7167 rops=836 syncs=221 fg=0x1.14ef8ep+24 bg=0x1.3a06de8p+24 cpu=0x1.12a88p+25"));
    (Stores.Leveldb, (17, "daf87ed2a13ef944f7bffd8ee12781cc",
      "written=6555351 read=4917837 wops=7873 rops=1640 syncs=336 fg=0x1.0f69518p+24 bg=0x1.275916p+25 cpu=0x1.6e36p+27"));
    (Stores.Wiredtiger, (1, "07fb433a09a6294a4bc5d66ba56df5b5",
      "written=10989676 read=275911 wops=9788 rops=226 syncs=0 fg=0x1.4f7346b8p+28 bg=0x0p+0 cpu=0x1.62c45p+27")) ]

let test_golden engine expected () =
  let n, digest, summary = golden_run engine in
  let en, edigest, esummary = expected in
  check Alcotest.int "file count" en n;
  check Alcotest.string "files digest" edigest digest;
  check Alcotest.string "io and clock" esummary summary

(* ---------- golden cache counters ---------- *)

(* A fixed read-heavy run: a random fill, random gets (one in six of an
   absent key) and short scans, with block, table and page caches small
   enough that all of them evict.  The summary pins each cache's hits,
   misses and evictions, the IO counters, the simulated clock and a
   digest of every answer, so a change to recency or eviction order
   fails here. *)
type cache_run = {
  put : string -> string -> unit;
  get : string -> string option;
  iter : unit -> Pdb_kvs.Iter.t;
  flush : unit -> unit;
  counters : unit -> string;
}

let cache_counters name ~hits ~misses ~evictions =
  Printf.sprintf "%s=%d/%d/%d" name hits misses evictions

let open_cache_run engine env =
  let opts =
    { (Stores.default_options engine) with
      Pdb_kvs.Options.memtable_bytes = 32 * 1024;
      block_cache_bytes = 96 * 1024;
      table_cache_entries = 3 }
  in
  let sstable_counters bc tc =
    let module BC = Pdb_sstable.Block_cache in
    let module TC = Pdb_sstable.Table_cache in
    cache_counters "block" ~hits:(BC.hits bc) ~misses:(BC.misses bc)
      ~evictions:(BC.evictions bc)
    ^ " "
    ^ cache_counters "table" ~hits:(TC.hits tc) ~misses:(TC.misses tc)
        ~evictions:(TC.evictions tc)
  in
  match engine with
  | Stores.Pebblesdb ->
    let module P = Pebblesdb.Pebbles_store in
    let t = P.open_store opts ~env ~dir:"db" in
    { put = P.put t; get = (fun k -> P.get t k);
      iter = (fun () -> P.iterator t); flush = (fun () -> P.flush t);
      counters =
        (fun () -> sstable_counters (P.block_cache t) (P.table_cache t)) }
  | Stores.Leveldb ->
    let module L = Pdb_lsm.Lsm_store in
    let t = L.open_store opts ~env ~dir:"db" in
    { put = L.put t; get = (fun k -> L.get t k);
      iter = (fun () -> L.iterator t); flush = (fun () -> L.flush t);
      counters =
        (fun () -> sstable_counters t.L.block_cache t.L.table_cache) }
  | _ ->
    let module W = Pdb_btree.Wt_store in
    let module B = Pdb_btree.Bptree in
    let t = W.open_store opts ~env ~dir:"db" in
    { put = W.put t; get = W.get t; iter = (fun () -> W.iterator t);
      flush = (fun () -> W.flush t);
      counters =
        (fun () ->
          let hot = t.W.tree.B.hot in
          cache_counters "page" ~hits:(Pdb_util.Lru.hits hot)
            ~misses:(Pdb_util.Lru.misses hot)
            ~evictions:(Pdb_util.Lru.evictions hot)) }

let cache_golden_run engine =
  let env = Env.create () in
  let rng = Rng.create 4242 in
  let keys = 3000 in
  let key i = Printf.sprintf "key%06d" (i * 7) in
  let r = open_cache_run engine env in
  let order = Array.init keys Fun.id in
  Rng.shuffle rng order;
  Array.iter
    (fun i -> r.put (key i) (Rng.alpha rng (100 + Rng.int rng 200)))
    order;
  r.flush ();
  let answers = Buffer.create 4096 in
  let answer = function
    | Some v -> Buffer.add_string answers (Digest.string v)
    | None -> Buffer.add_char answers '-'
  in
  for op = 1 to 6000 do
    if op mod 25 = 0 then begin
      let it = r.iter () in
      it.Pdb_kvs.Iter.seek (key (Rng.int rng keys));
      let n = ref 0 in
      while !n < 10 && it.Pdb_kvs.Iter.valid () do
        Buffer.add_string answers (it.Pdb_kvs.Iter.key ());
        it.Pdb_kvs.Iter.next ();
        incr n
      done
    end
    else if Rng.int rng 6 = 0 then
      (* absent: between two present keys *)
      answer (r.get (key (Rng.int rng keys) ^ "x"))
    else answer (r.get (key (Rng.int rng keys)))
  done;
  let s = Env.stats env in
  let c = Clock.snapshot (Env.clock env) in
  Printf.sprintf
    "%s written=%d read=%d wops=%d rops=%d syncs=%d fg=%h bg=%h cpu=%h \
     answers=%s"
    (r.counters ()) s.Io_stats.bytes_written s.Io_stats.bytes_read
    s.Io_stats.write_ops s.Io_stats.read_ops s.Io_stats.syncs
    c.Clock.foreground_ns c.Clock.background_ns c.Clock.cpu_ns
    (Digest.to_hex (Digest.string (Buffer.contents answers)))

(* Recorded on the list-linked LRU that preceded the array-backed one;
   "page" hits and misses count page touches that found the page resident
   or charged a read for it. *)
let cache_golden =
  [ (Stores.Pebblesdb,
     "block=954/5625/5602 table=3726/18122/18117"
     ^ " written=2894207 read=50162879 wops=3662 rops=41522 syncs=81"
     ^ " fg=0x1.133c71b4p+31 bg=0x1.4b01b1p+23 cpu=0x1.4e2a248p+27"
     ^ " answers=83d8a2fe2ee7f53e97b55a978e03b612");
    (Stores.Leveldb,
     "block=3072/7982/7959 table=2036/8902/8897"
     ^ " written=3035525 read=36115918 wops=3767 rops=17439 syncs=122"
     ^ " fg=0x1.0d5bcc77p+30 bg=0x1.be2b05p+23 cpu=0x1.7113e3p+27"
     ^ " answers=83d8a2fe2ee7f53e97b55a978e03b612");
    (Stores.Wiredtiger,
     "page=9659/8746/8969"
     ^ " written=5388806 read=0 wops=4681 rops=0 syncs=0"
     ^ " fg=0x1.b6f4cebp+29 bg=0x0p+0 cpu=0x1.d0a15p+26"
     ^ " answers=83d8a2fe2ee7f53e97b55a978e03b612") ]

let test_cache_golden engine expected () =
  check Alcotest.string "cache counters, io and clock" expected
    (cache_golden_run engine)

let () =
  Alcotest.run "io-path"
    [ ("env-model", [ prop_env_matches_flat_model ]);
      ( "copy-free",
        [ Alcotest.test_case "read shares the extent" `Quick
            test_read_shares_extent;
          Alcotest.test_case "replaced extents keep old strings" `Quick
            test_replaced_extents_leave_old_strings;
          Alcotest.test_case "a reused tail starts empty" `Quick
            test_reused_tail_starts_empty ] );
      ( "block",
        [ Alcotest.test_case "overrunning value raises" `Quick
            test_block_overrun_raises;
          Alcotest.test_case "invalid iterator raises" `Quick
            test_block_invalid_iterator_raises;
          Alcotest.test_case "decode_view at an offset" `Quick
            test_block_decode_view_offset ] );
      ( "internal-key",
        [ prop_ikey_compare_matches_reference;
          Alcotest.test_case "length assertion" `Quick
            test_ikey_compare_asserts_length ] );
      ( "golden",
        List.map
          (fun (engine, expected) ->
            Alcotest.test_case (Stores.engine_name engine) `Quick
              (test_golden engine expected))
          golden );
      (* Group names stay within 12 characters: Alcotest sizes its name
         column by the longest one and shortens every test name to fit. *)
      ( "cache-golden",
        List.map
          (fun (engine, expected) ->
            Alcotest.test_case (Stores.engine_name engine) `Quick
              (test_cache_golden engine expected))
          cache_golden ) ]
