module A = Mdp.Arena

let witness_limit = 5

let show_state pa s = Format.asprintf "%a" (Core.Pa.pp_state pa) s

(* ------------------------------------------------------------------ *)
(* PA020 *)

let zero_time_cycles ~model pa arena =
  match Mdp.Zeno.check arena with
  | Mdp.Zeno.Ok -> []
  | Mdp.Zeno.Probabilistic_zero_time_cycle component ->
    let shown =
      List.filteri (fun k _ -> k < witness_limit) component
      |> List.map (fun i -> show_state pa (A.state arena i))
      |> String.concat ", "
    in
    let extra = List.length component - witness_limit in
    [ Diagnostic.v PA020 Error ~model
        ~witness:
          (Printf.sprintf "cycle through {%s}%s" shown
             (if extra > 0 then Printf.sprintf " and %d more state(s)" extra
              else ""))
        "probabilistic zero-time cycle: probability mass can cycle without \
         consuming time, so the exact finite-horizon engine cannot \
         converge and time-bound claims are meaningless here" ]

(* ------------------------------------------------------------------ *)
(* PA021 *)

(* Ticking is the target: a tick step counts as reaching it (the
   fixpoints read only the non-tick steps) and so does a terminal state,
   which PA010 reports instead.  A flagged state is one where some
   adversary keeps the probability of ever ticking below 1. *)

let tick_divergence ~model pa arena =
  let terminal =
    Array.init (A.num_states arena) (fun i -> A.num_steps_of arena i = 0)
  in
  let avoids =
    Mdp.Qualitative.can_avoid arena ~target:terminal
      ~steps:(fun k -> not (A.is_tick_step arena ~step:k))
  in
  let diags = ref [] in
  for i = Array.length avoids - 1 downto 0 do
    if avoids.(i) then
      diags :=
        Diagnostic.v PA021 Error ~model
          ~witness:(show_state pa (A.state arena i))
          "tick divergence fails: from this reachable state some \
           adversary avoids performing a tick forever with positive \
           probability, so no finite time bound can cover its executions"
        :: !diags
  done;
  Diagnostic.cap ~limit:witness_limit !diags
