(* In-memory span recorder for the traced benchmark run.

   Spans are opened and closed from the benchmark's own code, around its
   calls into the libraries' public functions. The traced passes run on
   one domain (an engine called with one domain runs on the caller's), so
   a worker process keeps one stack of open spans, per-name aggregates
   (calls, total time, self time) and the first [keep] closed span
   records. A span's self time is its duration minus the durations of its
   direct children, so the self times of one root span's tree add up to
   the root's duration. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type frame = {
  id : int;
  name : string;
  start : int;
  parent : int;
  mutable child : int;  (** direct children, ns *)
}

type agg = { mutable calls : int; mutable total_ns : int; mutable self_ns : int }

type record = {
  r_id : int;
  r_name : string;
  r_start : int;
  r_stop : int;
  r_parent : int;
  r_job : int;
}

let keep = 20_000
let domain = (Domain.self () :> int)
let next_id = ref 1
let job = ref 0
let stack : frame list ref = ref []
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32
let kept : record list ref = ref []
let closed = ref 0

let set_job j = job := j

let close f =
  let stop = now () in
  let dur = stop - f.start in
  stack := (match !stack with _ :: rest -> rest | [] -> []);
  (match !stack with p :: _ -> p.child <- p.child + dur | [] -> ());
  let a =
    match Hashtbl.find_opt aggs f.name with
    | Some a -> a
    | None ->
      let a = { calls = 0; total_ns = 0; self_ns = 0 } in
      Hashtbl.add aggs f.name a;
      a
  in
  a.calls <- a.calls + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_ns <- a.self_ns + dur - f.child;
  if !closed < keep then
    kept :=
      {
        r_id = f.id;
        r_name = f.name;
        r_start = f.start;
        r_stop = stop;
        r_parent = f.parent;
        r_job = !job;
      }
      :: !kept;
  incr closed

let with_span name fn =
  let parent = match !stack with f :: _ -> f.id | [] -> 0 in
  let f = { id = !next_id; name; start = now (); parent; child = 0 } in
  incr next_id;
  stack := f :: !stack;
  Fun.protect ~finally:(fun () -> close f) fn

let reset () =
  Hashtbl.reset aggs;
  kept := [];
  closed := 0

(* Per-name aggregates. *)
let totals () = aggs

(* The kept span records as JSON lines, in start order, then one line
   counting the spans closed beyond the [keep] cap. *)
let write ~path =
  let records = List.sort (fun a b -> compare a.r_start b.r_start) !kept in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun r ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"job\":%d,\"domain\":%d}\n"
            r.r_id r.r_name r.r_start r.r_stop r.r_parent r.r_job domain)
        records;
      Printf.fprintf oc "{\"dropped\":%d}\n" (max 0 (!closed - keep)))
