open Rsim_value

type t = {
  nd : Ndproto.t;
  state : Value.t;
  ep : Value.t array;
  cap : int;
}

let convert nd ~cap ~input =
  { nd; state = nd.Ndproto.init input; ep = Ndproto.initial_ep nd; cap }

let nd t = t.nd
let expected t = Array.copy t.ep
let poised t = t.nd.Ndproto.view t.state

let advance t ~response =
  match poised t with
  | `Output _ -> invalid_arg "Derandomize.advance: process already output"
  | `Step step ->
    let expected_resp = Ndproto.expected_response t.nd ~ep:t.ep step in
    let ep' = Ndproto.update_ep t.nd ~ep:t.ep step ~response in
    let succ = Ndproto.successors t.nd t.state response in
    let fallback () =
      match succ with s :: _ -> s | [] -> assert false
    in
    let state' =
      if Value.equal response expected_resp then begin
        (* Choose the order-first successor on a shortest solo path. *)
        let best =
          List.fold_left
            (fun acc s' ->
              match Solo_path.shortest t.nd ~state:s' ~ep:ep' ~cap:t.cap with
              | None -> acc
              | Some d -> (
                match acc with
                | Some (dbest, _) when dbest <= d -> acc
                | _ -> Some (d, s')))
            None succ
        in
        match best with Some (_, s') -> s' | None -> fallback ()
      end
      else fallback ()
    in
    { t with state = state'; ep = ep' }

let solo_distance t =
  Solo_path.shortest t.nd ~state:t.state ~ep:t.ep ~cap:t.cap
