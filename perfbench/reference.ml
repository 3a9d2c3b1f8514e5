(** A fixed reference load for the host clock.

    The benchmark shares its host with other work, and the speed that host
    gives one process drifts by tens of percent from minute to minute.  A
    pass of this load — sorting, comparing and copying over buffers
    allocated once, with no allocation of its own, so neither the heap the
    store leaves behind nor any code of this repository affects it — is
    timed next to every timed phase; dividing the phase's CPU time by the
    reference's cancels most of that drift. *)

let ints = Array.make (1 lsl 17) 0
let src = Bytes.make (1 lsl 23) 'a'
let dst = Bytes.create (1 lsl 23)

let keys =
  Array.init (1 lsl 15) (fun i ->
      Printf.sprintf "%016d" ((i * 7919) land 0xfffff))

(** The CPU time of a pass on an unloaded host: CPU times divided by a
    measured pass and multiplied by this read as on such a host. *)
let nominal_s = 0.075

let pass () =
  let x = ref 88172645463325252 in
  for i = 0 to Array.length ints - 1 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    ints.(i) <- !x
  done;
  Array.sort Int.compare ints;
  for i = 0 to 3 do
    Bytes.blit src (i * 4096) dst 0 (Bytes.length src - (i * 4096))
  done;
  let less = ref 0 in
  for i = 1 to Array.length keys - 1 do
    if String.compare keys.(i - 1) keys.(i) < 0 then incr less
  done;
  ignore (Sys.opaque_identity !less)

(** [cpu_s ()] is the process CPU time of one pass. *)
let cpu_s () =
  let t0 = Unix.times () in
  pass ();
  let t1 = Unix.times () in
  t1.Unix.tms_utime +. t1.Unix.tms_stime -. t0.Unix.tms_utime
  -. t0.Unix.tms_stime
