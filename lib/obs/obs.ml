(* The observability plane. Stdlib only: everything else in the
   repository links against this, so it must sit at the bottom of the
   dependency graph. *)

(* ---------------------------------------------------------------- *)
(* JSON                                                              *)
(* ---------------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* Non-finite floats have no JSON representation; "%.12g" may print
     "1" for 1.0, which is still a valid JSON number. *)
  let float_repr f =
    if not (Float.is_finite f) then "null" else Printf.sprintf "%.12g" f

  let rec emit b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ", ";
          emit b x)
        xs;
      Buffer.add_char b ']'
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          emit b v)
        kvs;
      Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 256 in
    emit b t;
    Buffer.contents b

  let rec emit_pretty b indent = function
    | (Null | Bool _ | Int _ | Float _ | Str _) as v -> emit b v
    | Arr [] -> Buffer.add_string b "[]"
    | Arr xs ->
      let pad = String.make indent ' ' in
      Buffer.add_string b "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b pad;
          Buffer.add_string b "  ";
          emit_pretty b (indent + 2) x)
        xs;
      Buffer.add_char b '\n';
      Buffer.add_string b pad;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
      let pad = String.make indent ' ' in
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b pad;
          Buffer.add_string b "  \"";
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          emit_pretty b (indent + 2) v)
        kvs;
      Buffer.add_char b '\n';
      Buffer.add_string b pad;
      Buffer.add_char b '}'

  let to_string_pretty t =
    let b = Buffer.create 256 in
    emit_pretty b 0 t;
    Buffer.contents b

  exception Fail of string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      (match peek () with
      | Some '"' -> advance ()
      | _ -> fail "expected '\"'");
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | None -> fail "unterminated escape"
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 'b' -> Buffer.add_char b '\b'
          | Some 'f' -> Buffer.add_char b '\012'
          | Some 'u' ->
            (* keep the code point as UTF-8 for the BMP subset we emit *)
            if !pos + 4 >= n then fail "truncated \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail "bad \\u escape"
            | Some cp when cp < 0x80 -> Buffer.add_char b (Char.chr cp)
            | Some cp when cp < 0x800 ->
              Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
            | Some cp ->
              Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F))));
            pos := !pos + 4
          | Some c -> Buffer.add_char b c);
          advance ();
          go ()
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      let lit = String.sub s start (!pos - start) in
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" lit))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elems (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elems [])
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            (match peek () with
            | Some ':' -> advance ()
            | _ -> fail "expected ':'");
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields ((k, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
      | _ -> fail "unexpected character"
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing input";
      v
    with
    | v -> Ok v
    | exception Fail msg -> Error msg

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | Null | Bool _ | Int _ | Float _ | Str _ | Arr _ -> None
end

(* ---------------------------------------------------------------- *)
(* Leveled logging                                                   *)
(* ---------------------------------------------------------------- *)

module Log = struct
  type level = Error | Warn | Info | Debug

  let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3
  let current : level option ref = ref (Some Error)

  let enabled l =
    match !current with
    | None -> false
    | Some threshold -> severity l <= severity threshold

  let init_from_env () =
    match Sys.getenv_opt "RSIM_LOG" with
    | Some "debug" -> current := Some Debug
    | Some "info" -> current := Some Info
    | Some ("warn" | "warning") -> current := Some Warn
    | Some "error" -> current := Some Error
    | Some "quiet" -> current := None
    | Some _ | None -> ()

  let () = init_from_env ()

  type 'a msgf = (('a, out_channel, unit) format -> 'a) -> unit

  let tag = function
    | Error -> "error"
    | Warn -> "warn"
    | Info -> "info"
    | Debug -> "debug"

  let log l (msgf : 'a msgf) =
    if enabled l then
      msgf (fun fmt ->
          Printf.eprintf ("rsim: [%s] " ^^ fmt ^^ "\n%!") (tag l))

  let err m = log Error m
  let info m = log Info m
  let debug m = log Debug m
end

(* ---------------------------------------------------------------- *)
(* Metrics                                                           *)
(* ---------------------------------------------------------------- *)

module Metrics = struct
  type counter = int Atomic.t
  type gauge = int Atomic.t

  type histogram = { counts : int Atomic.t array; sum : int Atomic.t }

  type metric = Mcounter of counter | Mgauge of gauge | Mhist of histogram

  let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
  let registry_lock = Mutex.create ()

  let with_lock f =
    Mutex.lock registry_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

  (* Buckets 0..30 hold values <= 2^i; bucket 31 is the overflow. *)
  let n_buckets = 32

  (* Top-level recursion (not a local [let rec] capturing [v]) so the
     call allocates no closure: [observe] must stay allocation-free. *)
  let rec bucket_search v i bound =
    if bound >= v then i
    else if i >= 30 then 31
    else bucket_search v (i + 1) (bound * 2)

  let bucket_index v = if v <= 1 then 0 else bucket_search v 0 1

  let bucket_upper_bound i =
    if i < 0 || i >= n_buckets then invalid_arg "Obs.Metrics.bucket_upper_bound"
    else if i = n_buckets - 1 then None
    else Some (1 lsl i)

  let counter name =
    with_lock (fun () ->
        match Hashtbl.find_opt registry name with
        | Some (Mcounter c) -> c
        | Some (Mgauge _ | Mhist _) ->
          invalid_arg
            (Printf.sprintf
               "Obs.Metrics: %S is already registered as another kind" name)
        | None ->
          let c = Atomic.make 0 in
          Hashtbl.replace registry name (Mcounter c);
          c)

  let incr c = Atomic.incr c
  let add c k = ignore (Atomic.fetch_and_add c k)
  let counter_value c = Atomic.get c

  let gauge name =
    with_lock (fun () ->
        match Hashtbl.find_opt registry name with
        | Some (Mgauge g) -> g
        | Some (Mcounter _ | Mhist _) ->
          invalid_arg
            (Printf.sprintf
               "Obs.Metrics: %S is already registered as another kind" name)
        | None ->
          let g = Atomic.make 0 in
          Hashtbl.replace registry name (Mgauge g);
          g)

  let set g v = Atomic.set g v
  let shift g k = ignore (Atomic.fetch_and_add g k)
  let gauge_value g = Atomic.get g

  let histogram name =
    with_lock (fun () ->
        match Hashtbl.find_opt registry name with
        | Some (Mhist h) -> h
        | Some (Mcounter _ | Mgauge _) ->
          invalid_arg
            (Printf.sprintf
               "Obs.Metrics: %S is already registered as another kind" name)
        | None ->
          let h =
            {
              counts = Array.init n_buckets (fun _ -> Atomic.make 0);
              sum = Atomic.make 0;
            }
          in
          Hashtbl.replace registry name (Mhist h);
          h)

  let observe h v =
    Atomic.incr h.counts.(bucket_index v);
    ignore (Atomic.fetch_and_add h.sum v)

  let histogram_count h =
    let total = ref 0 in
    Array.iter (fun c -> total := !total + Atomic.get c) h.counts;
    !total

  let histogram_sum h = Atomic.get h.sum
  let histogram_counts h = Array.map Atomic.get h.counts

  let reset () =
    with_lock (fun () ->
        Hashtbl.iter
          (fun _ m ->
            match m with
            | Mcounter c | Mgauge c -> Atomic.set c 0
            | Mhist h ->
              Array.iter (fun c -> Atomic.set c 0) h.counts;
              Atomic.set h.sum 0)
          registry)

  let sorted_metrics () =
    with_lock (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let hist_json h =
    let buckets = ref [] in
    let counts = histogram_counts h in
    Array.iteri
      (fun i c ->
        if c > 0 then
          let ub = match bucket_upper_bound i with Some b -> b | None -> -1 in
          buckets := Json.Arr [ Json.Int ub; Json.Int c ] :: !buckets)
      counts;
    Json.Obj
      [
        ("count", Json.Int (histogram_count h));
        ("sum", Json.Int (histogram_sum h));
        ("buckets", Json.Arr (List.rev !buckets));
      ]

  let to_json () =
    let counters = ref [] and gauges = ref [] and hists = ref [] in
    List.iter
      (fun (name, m) ->
        match m with
        | Mcounter c -> counters := (name, Json.Int (Atomic.get c)) :: !counters
        | Mgauge g -> gauges := (name, Json.Int (Atomic.get g)) :: !gauges
        | Mhist h -> hists := (name, hist_json h) :: !hists)
      (sorted_metrics ());
    Json.Obj
      [
        ("counters", Json.Obj (List.rev !counters));
        ("gauges", Json.Obj (List.rev !gauges));
        ("histograms", Json.Obj (List.rev !hists));
      ]

  let pp fmt () =
    let metrics = sorted_metrics () in
    let nonzero =
      List.filter
        (fun (_, m) ->
          match m with
          | Mcounter c | Mgauge c -> Atomic.get c <> 0
          | Mhist h -> histogram_count h > 0)
        metrics
    in
    if nonzero = [] then Format.fprintf fmt "(no metrics recorded)@."
    else
      List.iter
        (fun (name, m) ->
          match m with
          | Mcounter c ->
            Format.fprintf fmt "%-44s %10d@." name (Atomic.get c)
          | Mgauge g -> Format.fprintf fmt "%-44s %10d@." name (Atomic.get g)
          | Mhist h ->
            Format.fprintf fmt "%-44s count=%d sum=%d@." name
              (histogram_count h) (histogram_sum h);
            Array.iteri
              (fun i c ->
                if c > 0 then
                  match bucket_upper_bound i with
                  | Some ub -> Format.fprintf fmt "    <= %-10d %10d@." ub c
                  | None -> Format.fprintf fmt "    >  %-10d %10d@." (1 lsl 30) c)
              (histogram_counts h))
        nonzero
end

(* ---------------------------------------------------------------- *)
(* Tracing                                                           *)
(* ---------------------------------------------------------------- *)

module Trace = struct
  type ev = {
    name : string;
    ph : string;
    dom : int;  (* Chrome pid: the OCaml domain that recorded the event *)
    tid : int;  (* Chrome tid: the in-run process id *)
    ts : int;
    dur : int;  (* < 0 means "no dur field" *)
    args : (string * Json.t) list;
  }

  let on = Atomic.make false
  let buf : ev list ref = ref []
  let buf_lock = Mutex.create ()

  let enabled () = Atomic.get on

  let push e =
    Mutex.lock buf_lock;
    buf := e :: !buf;
    Mutex.unlock buf_lock

  let clear () =
    Mutex.lock buf_lock;
    buf := [];
    Mutex.unlock buf_lock

  let start () =
    clear ();
    Atomic.set on true

  let stop () = Atomic.set on false

  let length () =
    Mutex.lock buf_lock;
    let n = List.length !buf in
    Mutex.unlock buf_lock;
    n

  let dom_id () = (Domain.self () :> int)

  let instant ?(args = []) ~name ~pid ~ts () =
    if enabled () then
      push
        {
          name;
          ph = "i";
          dom = dom_id ();
          tid = pid;
          ts;
          dur = -1;
          args;
        }

  let complete ?(args = []) ~name ~pid ~ts ~dur () =
    if enabled () then
      push
        {
          name;
          ph = "X";
          dom = dom_id ();
          tid = pid;
          ts;
          dur = max 0 dur;
          args;
        }

  let ev_json e =
    let base =
      [
        ("name", Json.Str e.name);
        ("ph", Json.Str e.ph);
        ("pid", Json.Int e.dom);
        ("tid", Json.Int e.tid);
        ("ts", Json.Int e.ts);
      ]
    in
    let base = if e.dur >= 0 then base @ [ ("dur", Json.Int e.dur) ] else base in
    let base =
      if e.args = [] then base else base @ [ ("args", Json.Obj e.args) ]
    in
    Json.Obj base

  let events_in_order () =
    Mutex.lock buf_lock;
    let evs = List.rev !buf in
    Mutex.unlock buf_lock;
    evs

  let to_chrome () =
    Json.Obj
      [
        ( "traceEvents",
          Json.Arr (List.map ev_json (events_in_order ())) );
        ("displayTimeUnit", Json.Str "ms");
      ]

  let to_jsonl () =
    let b = Buffer.create 4096 in
    List.iter
      (fun e ->
        Buffer.add_string b (Json.to_string (ev_json e));
        Buffer.add_char b '\n')
      (events_in_order ());
    Buffer.contents b

  let write ~path () =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        if Filename.check_suffix path ".jsonl" then
          output_string oc (to_jsonl ())
        else output_string oc (Json.to_string_pretty (to_chrome ()) ^ "\n"))
end
