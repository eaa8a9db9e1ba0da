module Q = Proba.Rational

type ('s, 'a) monte_carlo = {
  schedulers : ('s, 'a) Core.Pa.t -> (string * ('s, 'a) Sim.Scheduler.t) list;
  start : 's;
  target : 's -> bool;
  reach : string;
  horizon : int;
  time_report :
    scheduler:string -> trials:int -> missed:int -> Proba.Stat.Summary.t ->
    string;
}

type ('s, 'a, 'i) t = {
  label : string;
  pa : ('s, 'a) Core.Pa.t;
  spec : ('s, 'a) Symmetry.spec;
  is_tick : 'a -> bool;
  instance : ('s, 'a) Mdp.Arena.t -> Symmetry.certificate option -> 'i;
  monte_carlo : ('s, 'a) monte_carlo option;
}

let build ?max_states ~sym d =
  let expl, cert =
    Symmetry.explored ~model:d.label ~mode:sym ?max_states d.spec d.pa
  in
  d.instance (Mdp.Arena.compile ~is_tick:d.is_tick expl) cert

type ('s, 'a) view = {
  arena : ('s, 'a) Mdp.Arena.t;
  cert : Symmetry.certificate option;
  target : 's -> bool;
  fields : helpers:int option -> (string * Json.t) list;
  body : unit -> unit;
  composed : unit -> ('s Core.Claim.t, string) result;
  claims : unit -> (string * 's Core.Claim.t) list;
  symmetry : unit -> ('s, 'a) Symmetry.spec;
  is_tick : 'a -> bool;
}

let share arena sets =
  List.iter (fun p -> ignore (Mdp.Arena.set arena p)) sets;
  ignore (Mdp.Arena.zero_time arena);
  ignore (Mdp.Arena.fixed_weights arena)

(* Every engine runs whole on one domain, so each group computes
   exactly what it computes alone. *)
let groups ~helpers tasks =
  List.concat (Array.to_list (Parallel.Fork.run ?helpers tasks))

let rat r = Json.Str (Q.to_string r)

let holds = function None -> Json.Str "holds" | Some _ -> Json.Str "violated"

let arrow_fields ~sets arrows composed =
  let arrow (a : _ Mdp.Checker.arrow) =
    let named =
      if sets then
        [ ("pre", Json.Str (Core.Pred.name a.pre));
          ("post", Json.Str (Core.Pred.name a.post)) ]
      else []
    in
    Json.Obj
      ((("label", Json.Str a.label) :: named)
       @ [ ("time", rat a.time); ("prob", rat a.prob);
           ("attained", rat a.attained);
           ("holds", Json.Bool (a.claim <> None)) ])
  in
  [ ("arrows", Json.Arr (List.map arrow arrows));
    ( "composed",
      match composed with
      | Ok c ->
        Json.Obj
          [ ("ok", Json.Bool true);
            ("claim", Json.Str (Format.asprintf "%a" Core.Claim.pp c)) ]
      | Error e -> Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str e) ]
    ) ]

let print_ladder ?(statements = false) width arrows composed =
  List.iter
    (fun (a : _ Mdp.Checker.arrow) ->
       let verdict = if a.claim <> None then "holds" else "FAILS" in
       if statements then
         Format.printf "%-*s %s -%s->_%s %s : attained %s (%s)@." width
           a.label (Core.Pred.name a.pre) (Q.to_string a.time)
           (Q.to_string a.prob) (Core.Pred.name a.post)
           (Q.to_string a.attained) verdict
       else
         Format.printf "%-*s attained %s (%s)@." width a.label
           (Q.to_string a.attained) verdict)
    arrows;
  match composed with
  | Ok claim when statements ->
    Format.printf "@.composed: %a@.@.%a@." Core.Claim.pp claim
      Core.Claim.pp_derivation claim
  | Ok claim -> Format.printf "composed: %a@." Core.Claim.pp claim
  | Error e -> Printf.printf "composition failed: %s\n" e

let claims arrows composed =
  List.filter_map
    (fun (a : _ Mdp.Checker.arrow) ->
       Option.map (fun c -> (a.label, c)) a.claim)
    arrows
  @ match composed with Ok c -> [ ("composed", c) ] | Error _ -> []
