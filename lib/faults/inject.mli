(** Fault injection as a composable transformer of probabilistic
    automata.

    [wrap ~hooks ~budget m] is an automaton over {!state} whose
    executions are exactly the executions of [m] interleaved with at
    most [budget] fault events, chosen by the adversary:

    - [Crash i] (permanent): process [i] takes no further steps.  The
      model-specific [on_crash] hook rewrites the base state so that the
      crashed process stops participating in the clock discipline (for
      the digital-clock case studies: park it in a non-ready region so
      [Tick] is never blocked on it).  Whether it releases held shared
      variables is the hook's decision -- both conventions are faithful
      fault models, with very different consequences.
    - [Lost i] (transient): process [i] is scheduled and the scheduling
      bookkeeping applies ([on_lost]: deadline restarted, step budget
      consumed), but the step's {e effect} is dropped.  Charged against
      [budget.loss].
    - [Stall i] / [Resume i]: process [i] wedges -- every one of its
      steps is replaced by a [Lost] step -- until the adversary resumes
      it ([on_wake]).  [Stall] is charged against [budget.stuck];
      [Resume] is free.  A stalled process the adversary never resumes
      behaves like a crash that still honours its scheduling
      obligations.

    The remaining budget is part of the wrapped state.  Two consequences
    matter:

    - {b Schema closure.}  Shifting a fault-injecting adversary past an
      execution fragment leaves a fault-injecting adversary for the
      suffix, with exactly the budget the fragment's last state still
      carries -- so {!Core.Schema.with_faults} inherits execution
      closure and Theorem 3.4 composition applies unchanged.
    - {b No Zeno behaviours.}  Every injected action is instantaneous,
      but each either consumes budget ([Crash]/[Stall]/[Lost]) or
      strictly shrinks the stalled set ([Resume]); [Lost] additionally
      consumes the process's per-slot step budget via [on_lost].  Hence
      the zero-time layers of the wrapped clocked automaton stay
      acyclic and exactly checkable.

    Crashed processes' base steps are removed by the wrapper itself, in
    addition to whatever [on_crash] does -- the linter check [PA012]
    verifies this isolation property on the explored wrapped space. *)

(** A base state plus fault bookkeeping.  [crashed] and [stuck] are
    sorted, duplicate-free process lists; [left] is the remaining
    budget. *)
type 's state = {
  base : 's;
  crashed : int list;
  stuck : int list;
  left : Fault.spec;
}

type 'a action =
  | Step of 'a  (** a surviving base step *)
  | Crash of int
  | Lost of int  (** a scheduled step whose effect was dropped *)
  | Stall of int
  | Resume of int

(** Model-specific surgery, invoked on base states.

    [procs] counts the processes of a state; [proc_of_action] attributes
    a base action to the process performing it ([None] for global
    actions such as [Tick], which faults never touch).

    [on_lost s i] applies the scheduling bookkeeping of a dropped step,
    or returns [None] when process [i] cannot absorb one now (e.g. its
    per-slot step budget is exhausted, or its only enabled actions are
    user-controlled ones, which the adversary may simply withhold
    instead).  Returning [Some s] with [s] unchanged would introduce a
    zero-time cycle; hooks must consume some decreasing resource. *)
type ('s, 'a) hooks = {
  procs : 's -> int;
  proc_of_action : 'a -> int option;
  on_crash : 's -> int -> 's;
  on_lost : 's -> int -> 's option;
  on_wake : 's -> int -> 's;
}

(** [init ~budget s] wraps a base state with a full budget and no
    faults. *)
val init : budget:Fault.spec -> 's -> 's state

val base : 's state -> 's

(** Processes currently unable to make progress: crashed or stalled.
    Sorted, duplicate-free. *)
val faulted : 's state -> int list

val is_crashed : 's state -> int -> bool

(** Remaining injection budget. *)
val remaining : 's state -> Fault.spec

(** The process whose {e base} step an action performs: [Step a] maps
    through the hook, every injected action (including [Lost]) to
    [None].  This is the view the [PA012] lint check consumes. *)
val effective_proc : ('a -> int option) -> 'a action -> int option

val is_injection : 'a action -> bool

(** Durations lift from the base: injections are instantaneous. *)
val duration : ('a -> int) -> 'a action -> int

(** [wrap ~hooks ~budget m] is the fault-extended automaton.  Its start
    states are [m]'s, wrapped with the full budget.  Injected actions
    are internal. *)
val wrap :
  hooks:('s, 'a) hooks -> budget:Fault.spec -> ('s, 'a) Core.Pa.t ->
  ('s state, 'a action) Core.Pa.t
