(* See probe.mli.  The refund convention matches the seed parallel-seek
   model: a fully parallel probe paid [slowest + 0.5 * (rest)]; with a
   finite budget the makespan replaces [slowest]. *)

type session = {
  label : string;
  start_elapsed : float;
  mutable costs : float list;
}

type ctx = {
  clock : Clock.t;
  budget : unit -> int;
  tracer : unit -> Trace.t option;
  mutable active : session option;
}

let create_ctx ~clock ~budget ~tracer () =
  { clock; budget; tracer; active = None }

let record ctx s before =
  s.costs <- (Clock.lane_time ctx.clock -. before) :: s.costs

let measure ctx f =
  match ctx.active with
  | None -> f ()
  | Some s ->
    (* record the cost whether [f] returns or raises; a plain match
       allocates no closures *)
    let before = Clock.lane_time ctx.clock in
    match f () with
    | r ->
      record ctx s before;
      r
    | exception e ->
      record ctx s before;
      raise e

(* Pack costs onto [lanes] lanes, longest first (LPT): each cost lands on
   the least-loaded lane.  lanes <= 1 or a single cost degenerate to the
   serial sum. *)
let makespan ~lanes costs =
  let lanes = max 1 lanes in
  let total = List.fold_left ( +. ) 0.0 costs in
  if lanes = 1 then total
  else
    match costs with
    | [] | [ _ ] -> total
    | costs ->
      let loads = Array.make lanes 0.0 in
      List.iter
        (fun c ->
          let least = ref 0 in
          for i = 1 to lanes - 1 do
            if loads.(i) < loads.(!least) then least := i
          done;
          loads.(!least) <- loads.(!least) +. c)
        (List.sort (fun a b -> Float.compare b a) costs);
      Array.fold_left Float.max 0.0 loads

let now ctx = Clock.elapsed_ns (Clock.snapshot ctx.clock)

let finish ctx s =
  let n = List.length s.costs in
  if n > 1 then begin
    let total = List.fold_left ( +. ) 0.0 s.costs in
    let overlapped = makespan ~lanes:(ctx.budget ()) s.costs in
    (* snapshot the end time before refunding: the refund rewinds the
       clock, so measuring afterwards under-reports (or negative-reports)
       the session's duration *)
    let end_elapsed = now ctx in
    if total > overlapped then
      (* pay the makespan plus a queueing share of the overlap *)
      Clock.refund ctx.clock (0.5 *. (total -. overlapped));
    match ctx.tracer () with
    | Some tr when total > 0.0 ->
      Trace.span tr ~name:("probe:" ^ s.label) ~cat:"probe"
        ~lane:"foreground" ~start_ns:s.start_elapsed
        ~dur_ns:(end_elapsed -. s.start_elapsed)
        ~args:
          [
            ("tables", string_of_int n);
            ("serial_ns", Printf.sprintf "%.0f" total);
            ("overlapped_ns", Printf.sprintf "%.0f" overlapped);
            ("budget", string_of_int (ctx.budget ()));
          ]
        ()
    | Some _ | None -> ()
  end

let close ctx s =
  ctx.active <- None;
  finish ctx s

let with_session ctx ~label f =
  match ctx.active with
  | Some _ -> f () (* nested: fold into the outer session *)
  | None ->
    let s = { label; start_elapsed = now ctx; costs = [] } in
    ctx.active <- Some s;
    match f () with
    | r ->
      close ctx s;
      r
    | exception e ->
      close ctx s;
      raise e
