let apply_state (pi, rho) (s : State.t) =
  let procs = Array.copy s.State.procs in
  for i = 0 to Array.length procs - 1 do
    procs.(pi.(i)) <- s.State.procs.(i)
  done;
  let res = Array.copy s.State.res in
  for r = 0 to Array.length res - 1 do
    res.(rho.(r)) <- s.State.res.(r)
  done;
  { State.procs; res }

let apply_action pi = function
  | Automaton.Tick -> Automaton.Tick
  | Automaton.Try i -> Automaton.Try pi.(i)
  | Automaton.Exit i -> Automaton.Exit pi.(i)
  | Automaton.Flip i -> Automaton.Flip pi.(i)
  | Automaton.Wait i -> Automaton.Wait pi.(i)
  | Automaton.Second i -> Automaton.Second pi.(i)
  | Automaton.Drop i -> Automaton.Drop pi.(i)
  | Automaton.Crit i -> Automaton.Crit pi.(i)
  | Automaton.Drop_first (i, u) -> Automaton.Drop_first (pi.(i), u)
  | Automaton.Drop_second i -> Automaton.Drop_second pi.(i)
  | Automaton.Rem i -> Automaton.Rem pi.(i)

let perm_name pi =
  Printf.sprintf "perm(%s)"
    (String.concat " " (Array.to_list (Array.map string_of_int pi)))

let generators topo =
  List.map
    (fun (pi, rho) ->
       Analysis.Symmetry.generator ~name:(perm_name pi)
         ~on_state:(apply_state (pi, rho)) ~on_action:(apply_action pi))
    (Topology.generators topo)

let pred p = (Core.Pred.name p, fun s -> Core.Pred.mem p s)

let spec ?(extra = []) topo =
  Analysis.Symmetry.spec
    ~preds:
      (List.map pred
         [ Regions.t; Regions.c; Regions.rt; Regions.f; Regions.p;
           Regions.g_of topo; Regions.p_or_c; Regions.rt_or_c ]
       @ extra)
    (generators topo)

let ring ?(extra = []) ~n () =
  (* The ring proof's goodness set is the specialized [Regions.g]; it
     coincides with [g_of (ring n)] but is the predicate the claims
     actually name, so register it too. *)
  spec ~extra:(pred Regions.g :: extra) (Topology.ring n)
