module Q = Proba.Rational

type instance = {
  params : Automaton.params;
  initial : Automaton.bit array;
  expl : (Automaton.state, Automaton.action) Mdp.Explore.t;
  arena : (Automaton.state, Automaton.action) Mdp.Arena.t;
  sym : Analysis.Symmetry.certificate option;
}

let build ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off) ~n
    ~f ~cap ~initial () =
  let params = { Automaton.n; f; cap; g; k } in
  let pa = Automaton.make ~initial params in
  let expl, cert =
    Analysis.Symmetry.explored ~model:"ben_or" ~mode:sym ?max_states
      (Symmetry.spec params ~initial) pa
  in
  { params; initial; expl; sym = cert;
    arena = Mdp.Arena.compile ~is_tick:Automaton.is_tick expl }

let agreement_violation inst =
  Mdp.Explore.check_invariant inst.expl Automaton.agreement

let validity_violation inst =
  let unanimous v = Array.for_all (Bool.equal v) inst.initial in
  if unanimous true then
    Mdp.Explore.check_invariant inst.expl (Automaton.never_decides false)
  else if unanimous false then
    Mdp.Explore.check_invariant inst.expl (Automaton.never_decides true)
  else None

type arrow = {
  label : string;
  time : Q.t;
  prob : Q.t;
  attained : Q.t;
  claim : Automaton.state Core.Claim.t option;
}

let init_pred inst =
  let start = Automaton.start inst.params inst.initial in
  Core.Pred.make "Init" (fun s -> s = start)

let decided_pred =
  Core.Pred.make "Decided" Automaton.some_decided

let decision_arrow inst ~rounds ~prob =
  let time = Q.of_int (3 * rounds) in
  let result =
    Mdp.Checker.check_arrow inst.arena
      ~granularity:inst.params.Automaton.g ~schema:Core.Schema.unit_time
      ~pre:(init_pred inst) ~post:decided_pred ~time ~prob
  in
  { label = Printf.sprintf "decide within %d round(s)" rounds;
    time; prob;
    attained = result.Mdp.Checker.attained;
    claim = result.Mdp.Checker.claim }

(* The certified termination statement at the exact attained bound: a
   probe at prob 0 always yields a claim and reports the true minimum,
   a second check names that minimum as the bound so the minted leaf is
   as tight as the checker can certify.  Both ask the arena the same
   question, so the backward induction runs once. *)
let composed inst ~rounds =
  if rounds < 1 || rounds > inst.params.Automaton.cap then
    Error
      (Printf.sprintf "rounds=%d outside the modelled cap %d" rounds
         inst.params.Automaton.cap)
  else begin
    let probe = decision_arrow inst ~rounds ~prob:Q.zero in
    if Q.is_zero probe.attained then
      Error
        (Printf.sprintf
           "the adversary can block every decision within %d round(s) \
            (attained minimum 0)" rounds)
    else begin
      match (decision_arrow inst ~rounds ~prob:probe.attained).claim with
      | Some claim -> Ok claim
      | None -> Error "checker refused its own attained bound" (* unreachable *)
    end
  end

(* Each point is its round count's decision arrow, so the last one and
   [composed]'s are one solved pass. *)
let decision_curve inst ~rounds =
  List.map (fun r -> (decision_arrow inst ~rounds:r ~prob:Q.zero).attained)
    rounds

let capped_liveness inst =
  let target = Mdp.Arena.indicator inst.arena decided_pred in
  let always = Mdp.Qualitative.always_reaches inst.arena ~target in
  always.(List.hd (Mdp.Arena.start_indices inst.arena))
