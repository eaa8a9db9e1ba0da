(** Declared symmetries of the Ben-Or consensus automaton.

    Process transpositions lift to candidate automorphisms: permute
    the process array and every per-round report/proposal row, and
    rename the process indices carried by actions (collection subsets
    are re-normalized to the generator's [collector :: ascending]
    shape).  Only transpositions of processes with {e equal initial
    values} are declared -- others move the start state and would be
    PA030 violations, correctly -- and of those only the adjacent ones
    within each class of equal values, which generate the same group
    with fewer generators. *)

(** [apply_state pi s] moves process [i] to [pi i], in the process
    array and in every report/proposal row; [apply_action pi] renames
    the process indices an action carries.  Exposed so tests can
    declare permutations other than the generators. *)
val apply_state : int array -> Automaton.state -> Automaton.state
val apply_action : int array -> Automaton.action -> Automaton.action

val generators :
  Automaton.params -> initial:Automaton.bit array ->
  (Automaton.state, Automaton.action) Analysis.Symmetry.generator list

(** [spec params ~initial] declares the equal-initial-value
    adjacent transpositions together with the proof's predicates ([Init],
    [Decided], [Agreement], [Quiescent]). *)
val spec :
  ?extra:(string * (Automaton.state -> bool)) list ->
  Automaton.params -> initial:Automaton.bit array ->
  (Automaton.state, Automaton.action) Analysis.Symmetry.spec
