(* Differential tests for the compiled arena: every engine result must
   be identical -- structurally equal rationals, bit-identical floats
   -- to the pre-refactor path that walked [Explore.step] records with
   an [~is_tick] closure.  The [Legacy] module below is that path,
   copied verbatim from the tree as it stood before the arena landed,
   so any divergence introduced by the CSR compilation or by the
   engines' new inner loops fails here first. *)

module Q = Proba.Rational
module P = Parallel.Pool
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or

(* Run [f] with a session pool of [domains] installed (what [--domains]
   does), or with none.  The engines are sequential and must not read
   it: every value below is compared with and without one. *)
let with_session_pool d f =
  match d with
  | None -> f ()
  | Some domains ->
    P.set_default (Some (P.create ~domains));
    Fun.protect ~finally:(fun () -> P.set_default None) f

(* ------------------------------------------------------------------ *)
(* The pre-refactor engines (reference implementations) *)

module Legacy = struct
  module Explore = Mdp.Explore

  exception No_convergence of string

  module type NUM = sig
    type t

    val zero : t
    val one : t
    val of_rational : Q.t -> t
    val add : t -> t -> t
    val scale : t -> t -> t
    val equal : t -> t -> bool
    val min : t -> t -> t
    val max : t -> t -> t
  end

  module Num_rational : NUM with type t = Q.t = struct
    type t = Q.t

    let zero = Q.zero
    let one = Q.one
    let of_rational q = q
    let add = Q.add
    let scale = Q.mul
    let equal = Q.equal
    let min = Q.min
    let max = Q.max
  end

  module Engine (N : NUM) = struct
    type compact = {
      n : int;
      target : bool array;
      steps : (bool * (int * N.t) array) array array;
    }

    let compact expl ~is_tick ~target =
      let n = Explore.num_states expl in
      if Array.length target <> n then
        invalid_arg "Finite_horizon: target array has wrong length";
      let steps = Array.make n [||] in
      for i = 0 to n - 1 do
        steps.(i) <-
          Array.map
            (fun s ->
               ( is_tick s.Explore.action,
                 Array.map
                   (fun (j, w) -> (j, N.of_rational w))
                   s.Explore.outcomes ))
            (Explore.steps expl i)
      done;
      { n; target; steps }

    let expectation v outcomes =
      Array.fold_left
        (fun acc (j, w) -> N.add acc (N.scale w v.(j)))
        N.zero outcomes

    let no_convergence max_sweeps =
      raise
        (No_convergence
           (Printf.sprintf "tick layer did not close after %d sweeps"
              max_sweeps))

    let layer_seq c ~best ~init v_next =
      let tick_exp =
        Array.map
          (Array.map (fun (tick, outcomes) ->
               if tick then Some (expectation v_next outcomes) else None))
          c.steps
      in
      let v = Array.init c.n init in
      let sweep () =
        let changed = ref false in
        for s = 0 to c.n - 1 do
          if not c.target.(s) then begin
            let stps = c.steps.(s) in
            if Array.length stps > 0 then begin
              let value = ref None in
              Array.iteri
                (fun k (_tick, outcomes) ->
                   let candidate =
                     match tick_exp.(s).(k) with
                     | Some e -> e
                     | None -> expectation v outcomes
                   in
                   match !value with
                   | None -> value := Some candidate
                   | Some cur -> value := Some (best cur candidate))
                stps;
              match !value with
              | None -> ()
              | Some fresh ->
                if not (N.equal fresh v.(s)) then begin
                  v.(s) <- fresh;
                  changed := true
                end
            end
          end
        done;
        !changed
      in
      let max_sweeps = c.n + 2 in
      let rec go k =
        if k > max_sweeps then no_convergence max_sweeps
        else if sweep () then go (k + 1)
      in
      go 0;
      v

    let min_init c s =
      if c.target.(s) then N.one
      else if Array.length c.steps.(s) = 0 then N.zero
      else N.one

    let max_init c s = if c.target.(s) then N.one else N.zero

    let run expl ~is_tick ~target ~ticks ~best ~init =
      if ticks < 0 then invalid_arg "Finite_horizon: negative tick horizon";
      let c = compact expl ~is_tick ~target in
      let v = ref (Array.make c.n N.zero) in
      for _t = 0 to ticks do
        v := layer_seq c ~best ~init:(init c) !v
      done;
      !v

    let min_reach expl ~is_tick ~target ~ticks =
      run expl ~is_tick ~target ~ticks ~best:N.min ~init:min_init

    let max_reach expl ~is_tick ~target ~ticks =
      run expl ~is_tick ~target ~ticks ~best:N.max ~init:max_init

    let argbest c ~best v_next v =
      Array.init c.n (fun s ->
          if c.target.(s) || Array.length c.steps.(s) = 0 then -1
          else begin
            let best_k = ref 0 in
            let best_v = ref None in
            Array.iteri
              (fun k (tick, outcomes) ->
                 let candidate =
                   expectation (if tick then v_next else v) outcomes
                 in
                 match !best_v with
                 | None ->
                   best_v := Some candidate;
                   best_k := k
                 | Some cur ->
                   if not (N.equal (best cur candidate) cur) then begin
                     best_v := Some candidate;
                     best_k := k
                   end)
              c.steps.(s);
            !best_k
          end)

    let min_reach_with_policy expl ~is_tick ~target ~ticks =
      if ticks < 0 then invalid_arg "Finite_horizon: negative tick horizon";
      let c = compact expl ~is_tick ~target in
      let policy = Array.make (ticks + 1) [||] in
      let v = ref (Array.make c.n N.zero) in
      for t = 0 to ticks do
        let fresh = layer_seq c ~best:N.min ~init:(min_init c) !v in
        policy.(t) <- argbest c ~best:N.min !v fresh;
        v := fresh
      done;
      (!v, policy)

    let run_steps expl ~target ~steps ~best =
      if steps < 0 then invalid_arg "Finite_horizon: negative step horizon";
      let n = Explore.num_states expl in
      if Array.length target <> n then
        invalid_arg "Finite_horizon: target array has wrong length";
      let c = compact expl ~is_tick:(fun _ -> false) ~target in
      let v =
        ref (Array.init n (fun s -> if target.(s) then N.one else N.zero))
      in
      for _k = 1 to steps do
        let prev = !v in
        let fresh = Array.make n N.zero in
        for s = 0 to n - 1 do
          fresh.(s) <-
            (if target.(s) then N.one
             else begin
               let stps = c.steps.(s) in
               if Array.length stps = 0 then N.zero
               else
                 Array.fold_left
                   (fun acc (_, outcomes) ->
                      let e = expectation prev outcomes in
                      match acc with
                      | None -> Some e
                      | Some cur -> Some (best cur e))
                   None stps
                 |> Option.get
             end)
        done;
        v := fresh
      done;
      !v

    let min_reach_steps expl ~target ~steps =
      run_steps expl ~target ~steps ~best:N.min

    let max_reach_steps expl ~target ~steps =
      run_steps expl ~target ~steps ~best:N.max
  end

  module Exact = Engine (Num_rational)

  let min_reach = Exact.min_reach
  let max_reach = Exact.max_reach
  let min_reach_with_policy = Exact.min_reach_with_policy
  let min_reach_steps = Exact.min_reach_steps
  let max_reach_steps = Exact.max_reach_steps

  (* Pre-refactor qualitative fixpoints *)

  let safe_core expl ~avoid =
    let n = Explore.num_states expl in
    let s = Array.copy avoid in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to n - 1 do
        if s.(i) then begin
          let steps = Explore.steps expl i in
          let ok =
            Array.length steps = 0
            || Array.exists
                 (fun step ->
                    Array.for_all (fun (j, _) -> s.(j)) step.Explore.outcomes)
                 steps
          in
          if not ok then begin
            s.(i) <- false;
            changed := true
          end
        end
      done
    done;
    s

  let can_avoid expl ~target =
    let n = Explore.num_states expl in
    let avoid = Array.map not target in
    let core = safe_core expl ~avoid in
    let bad = Array.copy core in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to n - 1 do
        if (not bad.(i)) && avoid.(i) then begin
          let steps = Explore.steps expl i in
          let reaches_bad =
            Array.exists
              (fun step ->
                 Array.exists (fun (j, _) -> bad.(j)) step.Explore.outcomes)
              steps
          in
          if reaches_bad then begin
            bad.(i) <- true;
            changed := true
          end
        end
      done
    done;
    bad

  let always_reaches expl ~target = Array.map not (can_avoid expl ~target)

  (* Pre-refactor expected-time value iteration *)

  let et_expectation v outcomes =
    Array.fold_left
      (fun acc (j, w) -> acc +. (Q.to_float w *. v.(j)))
      0.0 outcomes

  let state_value expl ~is_tick ~finite ~target ~best v i =
    if target.(i) then 0.0
    else if not finite.(i) then infinity
    else begin
      let steps = Explore.steps expl i in
      if Array.length steps = 0 then infinity
      else
        Array.fold_left
          (fun acc step ->
             let cost = if is_tick step.Explore.action then 1.0 else 0.0 in
             let e = cost +. et_expectation v step.Explore.outcomes in
             match acc with
             | None -> Some e
             | Some cur -> Some (best cur e))
          None steps
        |> Option.get
    end

  let value_iterate_seq expl ~is_tick ~finite ~target ~best ~epsilon
      ~max_sweeps =
    let n = Explore.num_states expl in
    let v =
      Array.init n (fun i ->
          if target.(i) then 0.0 else if finite.(i) then 0.0 else infinity)
    in
    let sweep () =
      let delta = ref 0.0 in
      for i = 0 to n - 1 do
        if (not target.(i)) && finite.(i) then begin
          let steps = Explore.steps expl i in
          if Array.length steps > 0 then begin
            let fresh =
              state_value expl ~is_tick ~finite ~target ~best v i
            in
            let d = Float.abs (fresh -. v.(i)) in
            if d > !delta then delta := d;
            v.(i) <- fresh
          end
          else v.(i) <- infinity
        end
      done;
      !delta
    in
    let rec go k =
      if k > max_sweeps then
        failwith "Expected_time: value iteration did not converge"
      else if sweep () > epsilon then go (k + 1)
    in
    go 0;
    v

  let value_iterate expl ~is_tick ~finite ~target ~best =
    let epsilon = 1e-12 and max_sweeps = 1_000_000 in
    value_iterate_seq expl ~is_tick ~finite ~target ~best ~epsilon
      ~max_sweeps

  let max_expected_ticks expl ~is_tick ~target () =
    let finite = always_reaches expl ~target in
    value_iterate expl ~is_tick ~finite ~target ~best:Float.max

  let max_expected_ticks_with_policy expl ~is_tick ~target () =
    let finite = always_reaches expl ~target in
    let v = value_iterate expl ~is_tick ~finite ~target ~best:Float.max in
    let n = Explore.num_states expl in
    let policy =
      Array.init n (fun i ->
          if target.(i) || not finite.(i) then -1
          else begin
            let steps = Explore.steps expl i in
            if Array.length steps = 0 then -1
            else begin
              let best_k = ref 0 and best_v = ref neg_infinity in
              Array.iteri
                (fun k step ->
                   let cost =
                     if is_tick step.Explore.action then 1.0 else 0.0
                   in
                   let e = cost +. et_expectation v step.Explore.outcomes in
                   if e > !best_v then begin
                     best_v := e;
                     best_k := k
                   end)
                steps;
              !best_k
            end
          end)
    in
    (v, policy)
end

(* ------------------------------------------------------------------ *)
(* Fixtures: all four case studies, resolved through the registry so
   the suite shares explorations with nothing re-run.  [case_studies
   ~sym:On] gives their orbit quotients. *)

type fixture = Fixture : {
  name : string;
  expl : ('s, 'a) Mdp.Explore.t;
  arena : ('s, 'a) Mdp.Arena.t;
  is_tick : 'a -> bool;
  target : bool array;
  ticks : int;
} -> fixture

let case_studies ~sym =
  let lr = Models.lr ~sym ~n:3 () in
  let ir = Models.election ~sym ~n:3 () in
  let sc = Models.coin ~sym ~n:2 ~bound:3 () in
  let bo =
    Models.consensus ~sym ~n:3 ~f:1 ~cap:2 ~initial:[| false; false; true |] ()
  in
  [ Fixture
      { name = "lr";
        expl = lr.LR.Proof.expl;
        arena = lr.LR.Proof.arena;
        is_tick = LR.Automaton.is_tick;
        target = Mdp.Explore.indicator lr.LR.Proof.expl LR.Regions.c;
        ticks = 5 };
    Fixture
      { name = "election";
        expl = ir.IR.Proof.expl;
        arena = ir.IR.Proof.arena;
        is_tick = IR.Automaton.is_tick;
        target =
          Mdp.Explore.indicator ir.IR.Proof.expl
            (Core.Pred.make "elected" IR.Automaton.leader_elected);
        ticks = 6 };
    Fixture
      { name = "coin";
        expl = sc.SC.Proof.expl;
        arena = sc.SC.Proof.arena;
        is_tick = SC.Automaton.is_tick;
        target =
          Mdp.Explore.indicator sc.SC.Proof.expl
            (Core.Pred.make "decided"
               (SC.Automaton.decided sc.SC.Proof.params));
        ticks = 8 };
    Fixture
      { name = "consensus";
        expl = bo.BO.Proof.expl;
        arena = bo.BO.Proof.arena;
        is_tick = BO.Automaton.is_tick;
        target =
          Mdp.Explore.indicator bo.BO.Proof.expl
            (Core.Pred.make "decided" BO.Automaton.some_decided);
        ticks = 4 } ]

let fixtures = lazy (case_studies ~sym:Analysis.Symmetry.Off)
let quotients = lazy (case_studies ~sym:Analysis.Symmetry.On)

(* Structural equality, not [Q.equal]: the claim is bit-identity of
   the representation, which is strictly stronger. *)
let check_q_arrays name (expected : Q.t array) (got : Q.t array) =
  Alcotest.(check int) (name ^ ": length") (Array.length expected)
    (Array.length got);
  Array.iteri
    (fun i x ->
       if not (x = got.(i)) then
         Alcotest.failf "%s: state %d: %s vs %s" name i (Q.to_string x)
           (Q.to_string got.(i)))
    expected

let check_float_arrays name (expected : float array) (got : float array) =
  Alcotest.(check int) (name ^ ": length") (Array.length expected)
    (Array.length got);
  Array.iteri
    (fun i x ->
       (* [Float.equal] so that infinity = infinity and nan = nan. *)
       if not (Float.equal x got.(i)) then
         Alcotest.failf "%s: state %d: %h vs %h" name i x got.(i))
    expected

let check_int_arrays name (expected : int array) (got : int array) =
  Alcotest.(check (array int)) name expected got

(* ------------------------------------------------------------------ *)
(* Finite horizon: the reach engine on the case studies and on their
   orbit quotients, without and with a session pool of every size
   [--domains] accepts in the test matrix. *)

let pools = [ None; Some 1; Some 2; Some 3 ]

let pool_label = function
  | None -> "no pool"
  | Some d -> Printf.sprintf "%d-domain session pool" d

let test_reach_differential () =
  List.iter
    (fun (label, Fixture f) ->
       List.iter
         (fun d ->
            with_session_pool d (fun () ->
                let ctx what =
                  Printf.sprintf "%s%s %s (%s)" label f.name what
                    (pool_label d)
                in
                check_q_arrays (ctx "min_reach")
                  (Legacy.min_reach f.expl ~is_tick:f.is_tick
                     ~target:f.target ~ticks:f.ticks)
                  (Mdp.Finite_horizon.min_reach f.arena
                     ~target:f.target ~ticks:f.ticks);
                check_q_arrays (ctx "max_reach")
                  (Legacy.max_reach f.expl ~is_tick:f.is_tick
                     ~target:f.target ~ticks:f.ticks)
                  (Mdp.Finite_horizon.max_reach f.arena
                     ~target:f.target ~ticks:f.ticks)))
         pools)
    (List.map (fun fx -> ("", fx)) (Lazy.force fixtures)
     @ List.map (fun fx -> ("quotient ", fx)) (Lazy.force quotients))

(* A step-bounded question is a tick-bounded one on the fragment
   compiled with every step a tick: the legacy step engine and the
   tick engine must then agree bit for bit. *)
let test_reach_steps_differential () =
  List.iter
    (fun (Fixture f) ->
       let every_step = Mdp.Arena.compile ~is_tick:(fun _ -> true) f.expl in
       check_q_arrays (f.name ^ " min_reach_steps")
         (Legacy.min_reach_steps f.expl ~target:f.target ~steps:f.ticks)
         (Mdp.Finite_horizon.min_reach every_step ~target:f.target
            ~ticks:f.ticks);
       check_q_arrays (f.name ^ " max_reach_steps")
         (Legacy.max_reach_steps f.expl ~target:f.target ~steps:f.ticks)
         (Mdp.Finite_horizon.max_reach every_step ~target:f.target
            ~ticks:f.ticks))
    (Lazy.force fixtures)

let test_policy_differential () =
  List.iter
    (fun (Fixture f) ->
       let v0, p0 =
         Legacy.min_reach_with_policy f.expl ~is_tick:f.is_tick
           ~target:f.target ~ticks:3
       in
       let v1, p1 =
         Mdp.Finite_horizon.min_reach_with_policy f.arena ~target:f.target
           ~ticks:3
       in
       check_q_arrays (f.name ^ " policy values") v0 v1;
       Alcotest.(check int)
         (f.name ^ " policy layers")
         (Array.length p0) (Array.length p1);
       Array.iteri
         (fun t row ->
            check_int_arrays
              (Printf.sprintf "%s policy layer %d" f.name t)
              row p1.(t))
         p0)
    (Lazy.force fixtures)

(* ------------------------------------------------------------------ *)
(* Qualitative fixpoints *)

let test_qualitative_differential () =
  List.iter
    (fun (Fixture f) ->
       let check name a b =
         Alcotest.(check (array bool)) (f.name ^ " " ^ name) a b
       in
       check "always_reaches"
         (Legacy.always_reaches f.expl ~target:f.target)
         (Mdp.Qualitative.always_reaches f.arena ~target:f.target);
       let avoid = Array.map not f.target in
       check "safe_core"
         (Legacy.safe_core f.expl ~avoid)
         (Mdp.Qualitative.safe_core f.arena ~avoid))
    (Lazy.force fixtures)

(* ------------------------------------------------------------------ *)
(* Expected time *)

let test_expected_time_differential () =
  List.iter
    (fun (Fixture f) ->
       List.iter
         (fun d ->
            with_session_pool d (fun () ->
                let ctx what =
                  Printf.sprintf "%s %s (%s)" f.name what (pool_label d)
                in
                check_float_arrays (ctx "max_expected_ticks")
                  (Legacy.max_expected_ticks f.expl
                     ~is_tick:f.is_tick ~target:f.target ())
                  (Mdp.Expected_time.max_expected_ticks f.arena
                     ~target:f.target ())))
         [ None; Some 2 ];
       let v0, p0 =
         Legacy.max_expected_ticks_with_policy f.expl ~is_tick:f.is_tick
           ~target:f.target ()
       in
       let v1, p1 =
         Mdp.Expected_time.max_expected_ticks_with_policy f.arena
           ~target:f.target ()
       in
       check_float_arrays (f.name ^ " policy values") v0 v1;
       check_int_arrays (f.name ^ " expected-time policy") p0 p1)
    (Lazy.force fixtures)

(* ------------------------------------------------------------------ *)
(* Budgeted partial fragments: the arena must preserve the frontier's
   stuck-state semantics, so values on a partial fragment match the
   legacy engines on the same fragment. *)

let test_partial_fragment_differential () =
  let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
  let partial =
    Mdp.Explore.run_budgeted ~budget:(Core.Budget.v ~max_states:500 ()) pa
  in
  Alcotest.(check bool) "fragment is partial" false partial.Mdp.Explore.complete;
  Alcotest.(check bool) "nonempty frontier" true
    (partial.Mdp.Explore.frontier > 0);
  let expl = partial.Mdp.Explore.fragment in
  let arena = Mdp.Arena.compile ~is_tick:LR.Automaton.is_tick expl in
  Alcotest.(check int) "arena mirrors frontier"
    (Mdp.Explore.num_expanded expl)
    (Mdp.Arena.num_expanded arena);
  Alcotest.(check bool) "frontier rows are empty" true
    (let ok = ref true in
     for i = Mdp.Arena.num_expanded arena to Mdp.Arena.num_states arena - 1 do
       if Mdp.Arena.num_steps_of arena i <> 0 then ok := false
     done;
     !ok);
  let target = Mdp.Explore.indicator expl LR.Regions.c in
  let is_tick = LR.Automaton.is_tick in
  check_q_arrays "partial min_reach"
    (Legacy.min_reach expl ~is_tick ~target ~ticks:4)
    (Mdp.Finite_horizon.min_reach arena ~target ~ticks:4);
  check_q_arrays "partial max_reach"
    (Legacy.max_reach expl ~is_tick ~target ~ticks:4)
    (Mdp.Finite_horizon.max_reach arena ~target ~ticks:4);
  Alcotest.(check (array bool)) "partial always_reaches"
    (Legacy.always_reaches expl ~target)
    (Mdp.Qualitative.always_reaches arena ~target)

(* ------------------------------------------------------------------ *)
(* Arena structure invariants *)

let test_arena_structure () =
  List.iter
    (fun (Fixture f) ->
       let a = f.arena in
       let n = Mdp.Arena.num_states a in
       Alcotest.(check int) (f.name ^ " num_states")
         (Mdp.Explore.num_states f.expl) n;
       Alcotest.(check int) (f.name ^ " num_choices")
         (Mdp.Explore.num_choices f.expl)
         (Mdp.Arena.num_choices a);
       Alcotest.(check int) (f.name ^ " num_branches")
         (Mdp.Explore.num_branches f.expl)
         (Mdp.Arena.num_branches a);
       (* Step rows mirror [Explore.steps] in order, content, tick
          classification, and both probability planes. *)
       for i = 0 to n - 1 do
         let steps = Mdp.Explore.steps f.expl i in
         Alcotest.(check int)
           (Printf.sprintf "%s steps at %d" f.name i)
           (Array.length steps)
           (Mdp.Arena.num_steps_of a i);
         let lo = a.Mdp.Arena.step_off.(i) in
         Array.iteri
           (fun k step ->
              let kk = lo + k in
              if
                not
                  (f.is_tick step.Mdp.Explore.action
                   = Mdp.Arena.is_tick_step a ~step:kk)
              then Alcotest.failf "%s: tick mask differs at %d/%d" f.name i k;
              let olo = a.Mdp.Arena.out_off.(kk) in
              Array.iteri
                (fun b (j, w) ->
                   let o = olo + b in
                   if a.Mdp.Arena.tgt.(o) <> j then
                     Alcotest.failf "%s: branch target differs" f.name;
                   if not (a.Mdp.Arena.prob_q.(o) = w) then
                     Alcotest.failf "%s: exact plane differs" f.name;
                   if not (Float.equal a.Mdp.Arena.prob_f.(o) (Q.to_float w))
                   then Alcotest.failf "%s: float plane differs" f.name)
                step.Mdp.Explore.outcomes)
           steps
       done)
    (Lazy.force fixtures)

(* ------------------------------------------------------------------ *)
(* Mdp.Funtbl.find_or_add *)

let test_find_or_add () =
  let t = Mdp.Funtbl.create ~equal:String.equal ~hash:Hashtbl.hash 4 in
  let calls = ref 0 in
  let make v () =
    incr calls;
    v
  in
  Alcotest.(check int) "miss installs" 1 (Mdp.Funtbl.find_or_add t "a" (make 1));
  Alcotest.(check int) "make called once" 1 !calls;
  Alcotest.(check int) "hit returns binding" 1
    (Mdp.Funtbl.find_or_add t "a" (make 99));
  Alcotest.(check int) "make not called on hit" 1 !calls;
  Alcotest.(check (option int)) "find sees it" (Some 1) (Mdp.Funtbl.find t "a");
  (* A raising [make] leaves the table unchanged. *)
  Alcotest.(check bool) "raise propagates" true
    (try
       ignore (Mdp.Funtbl.find_or_add t "b" (fun () -> failwith "boom"));
       false
     with Failure _ -> true);
  Alcotest.(check bool) "failed key absent" false (Mdp.Funtbl.mem t "b");
  Alcotest.(check int) "length unchanged" 1 (Mdp.Funtbl.length t);
  (* Interning survives resize. *)
  for i = 0 to 99 do
    ignore (Mdp.Funtbl.find_or_add t (string_of_int i) (fun () -> i))
  done;
  Alcotest.(check int) "after resize" 101 (Mdp.Funtbl.length t);
  Alcotest.(check int) "old binding intact" 1
    (Mdp.Funtbl.find_or_add t "a" (make 42))

(* ------------------------------------------------------------------ *)
(* Registry memoization: a second resolution of the same model must hit
   the cache and trigger no new exploration or compile. *)

let test_registry_memoizes () =
  let before = Models.stats () in
  let a = Models.lr ~n:3 () in
  let b = Models.lr ~n:3 () in
  Alcotest.(check bool) "same instance" true (a == b);
  let after = Models.stats () in
  Alcotest.(check int) "no new exploration" before.Models.explorations
    after.Models.explorations;
  Alcotest.(check int) "no new compile" before.Models.compiles
    after.Models.compiles;
  Alcotest.(check bool) "cache hits grew" true
    (after.Models.cache_hits > before.Models.cache_hits)

(* ------------------------------------------------------------------ *)
(* The interval plane: its one consumer is the certified two-sided
   bracket of expected-time value iteration. *)

let test_interval_vi_bracket () =
  let (Fixture f) = List.hd (Lazy.force fixtures) in
  let vlo, vhi =
    Mdp.Expected_time.max_expected_ticks_interval f.arena ~target:f.target ()
  in
  let v = Mdp.Expected_time.max_expected_ticks f.arena ~target:f.target () in
  Array.iteri
    (fun i x ->
       if Float.is_finite x then begin
         if not (vlo.(i) <= x && x <= vhi.(i)) then
           Alcotest.failf "state %d: %h outside [%h, %h]" i x vlo.(i)
             vhi.(i)
       end
       else if Float.is_finite vhi.(i) then
         Alcotest.failf "state %d: infinite VI but finite bracket" i)
    v

(* The orbit quotient's weights are orbit-summed, so its planes run
   over merged (but still dyadic) branches: the interval plane must
   collapse to the exact weight on every branch, and the expected-time
   bracket over it must enclose plain value iteration. *)
let test_plane_sym_quotient () =
  let inst = Models.lr ~sym:Analysis.Symmetry.On ~n:3 () in
  let arena = inst.LR.Proof.arena in
  let target = Mdp.Arena.indicator arena LR.Regions.c in
  let lo, hi = Mdp.Arena.interval_plane arena in
  let prob_q = arena.Mdp.Arena.prob_q in
  Alcotest.(check int) "lo length" (Array.length prob_q) (Array.length lo);
  Alcotest.(check int) "hi length" (Array.length prob_q) (Array.length hi);
  Array.iteri
    (fun o p ->
       if not (lo.(o) = hi.(o)
               && Proba.Rational.equal p (Proba.Rational.of_float_exact lo.(o)))
       then
         Alcotest.failf "branch %d: [%h, %h] is not the point %s" o lo.(o)
           hi.(o) (Proba.Rational.to_string p))
    prob_q;
  let vlo, vhi =
    Mdp.Expected_time.max_expected_ticks_interval arena ~target ()
  in
  let v = Mdp.Expected_time.max_expected_ticks arena ~target () in
  Array.iteri
    (fun i x ->
       if Float.is_finite x then begin
         if not (vlo.(i) <= x && x <= vhi.(i)) then
           Alcotest.failf "quotient state %d: %h outside [%h, %h]" i x
             vlo.(i) vhi.(i)
       end
       else if Float.is_finite vhi.(i) then
         Alcotest.failf "quotient state %d: infinite VI but finite bracket" i)
    v

(* ------------------------------------------------------------------ *)
(* Layer schedule: the sequential engine solves a tick layer in one walk
   over [Arena.zero_time], where [Legacy] sweeps the whole fragment in
   index order until nothing moves.  The values must be bit-identical,
   and [No_convergence] must be raised exactly where [Legacy] raises
   it.  The case-study fixtures above have acyclic zero-time graphs;
   these toys are built to break the walk instead. *)

let toy name ?(ticks = 4) ~goal pa =
  let is_tick = Test_support.Random_pa.is_tick in
  let expl = Mdp.Explore.run pa in
  Fixture
    { name;
      expl;
      arena = Mdp.Arena.compile ~is_tick expl;
      is_tick;
      target = Mdp.Explore.indicator expl (Core.Pred.make "goal" goal);
      ticks }

let step ?(k = 0) act dist = { Core.Pa.action = (act, k); dist }

let schedule_fixtures =
  lazy
    (let open Proba.Dist in
     let pa enabled = Core.Pa.make ~start:[ 0 ] ~enabled () in
     [ (* breadth-first discovery numbers a zero-time chain along its
          edges, so an index-order sweep moves values back one link per
          sweep; each link may also wait a tick *)
       toy "chain against BFS order" ~goal:(( = ) 8)
         (pa (fun s ->
              if s = 8 then []
              else [ step "go" (point (s + 1)); step "tick" (point s) ]));
       (* a token passed around a Dirac zero-time ring; leaving it costs
          a tick and a coin *)
       toy "Dirac zero-time cycle" ~goal:(( = ) 3)
         (pa (fun s ->
              if s = 3 then []
              else
                [ step "pass" (point ((s + 1) mod 3));
                  step "tick" (if s = 2 then coin 0 3 else point s) ]));
       (* min closes (waiting a tick is worth 0 at the horizon's end),
          max must be refused *)
       toy "probabilistic self-loop" ~goal:(( = ) 1)
         (pa (function
            | 0 -> [ step "flip" (coin 0 1); step "tick" (point 0) ]
            | _ -> []));
       toy "deadlock" ~goal:(( = ) 3)
         (pa (function
            | 0 -> [ step "go" (coin 1 2); step ~k:1 "go" (point 2) ]
            | 1 -> []
            | 2 -> [ step "tick" (coin 0 3); step "go" (point 1) ]
            | _ -> []));
       (* non-dyadic weights: no value past the first layer is a
          dyadic rational *)
       toy "1/3 weights" ~goal:(( = ) 4)
         (pa (function
            | 3 -> [ step "tick" (point 0) ]
            | 4 | 5 -> []
            | s ->
              [ step "roll"
                  (make
                     [ (s + 1, Q.of_ints 1 3); (4, Q.of_ints 1 3);
                       (5, Q.of_ints 1 3) ]);
                step "tick" (point s) ]));
       (let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
        let expl =
          (Mdp.Explore.run_budgeted ~budget:(Core.Budget.v ~max_states:500 ())
             pa)
            .Mdp.Explore.fragment
        in
        Fixture
          { name = "budgeted partial fragment";
            expl;
            arena = Mdp.Arena.compile ~is_tick:LR.Automaton.is_tick expl;
            is_tick = LR.Automaton.is_tick;
            target = Mdp.Explore.indicator expl LR.Regions.c;
            ticks = 4 }) ])

type 'v outcome = Values of 'v array | Refused

let outcome f =
  match f () with
  | v -> Values v
  | exception
      (Legacy.No_convergence _ | Mdp.Finite_horizon.No_convergence _) ->
    Refused

let check_outcome check name expected got =
  match expected, got with
  | Values e, Values g -> check name e g
  | Refused, Refused -> ()
  | Values _, Refused -> Alcotest.failf "%s: refused, the reference closes" name
  | Refused, Values _ -> Alcotest.failf "%s: closes, the reference refuses" name

(* The finite-horizon engine against [Legacy]: min and max. *)
let check_schedule ~label (Fixture f) =
  let ctx what = Printf.sprintf "%s %s (%s)" f.name what label in
  let legacy g =
    outcome (fun () ->
        g f.expl ~is_tick:f.is_tick ~target:f.target ~ticks:f.ticks)
  in
  let ours g =
    outcome (fun () -> g f.arena ~target:f.target ~ticks:f.ticks)
  in
  check_outcome check_q_arrays (ctx "min_reach")
    (legacy Legacy.min_reach) (ours Mdp.Finite_horizon.min_reach);
  check_outcome check_q_arrays (ctx "max_reach")
    (legacy Legacy.max_reach) (ours Mdp.Finite_horizon.max_reach)

let test_schedule_differential () =
  List.iter
    (fun fx ->
       List.iter
         (fun d ->
            with_session_pool d (fun () ->
                check_schedule ~label:(pool_label d) fx))
         pools)
    (Lazy.force schedule_fixtures)

let test_schedule_refusals () =
  let refused name =
    match
      List.find (fun (Fixture f) -> f.name = name)
        (Lazy.force schedule_fixtures)
    with
    | Fixture f ->
      List.map
        (fun g ->
           outcome (fun () -> g f.arena ~target:f.target ~ticks:f.ticks)
           = Refused)
        [ Mdp.Finite_horizon.min_reach; Mdp.Finite_horizon.max_reach ]
  in
  Alcotest.(check (list bool)) "self-loop: min closes, max refused"
    [ false; true ] (refused "probabilistic self-loop");
  Alcotest.(check (list bool)) "Dirac cycle closes both ways" [ false; false ]
    (refused "Dirac zero-time cycle")

(* The shared seeded generator ([Test_support.Random_pa]): 200 models
   of 2-30 states with dyadic and 1/3 weights, deadlocks, and Dirac and
   probabilistic zero-time cycles, each compiled with its goal and
   horizon. *)
let random_fixture seed =
  let m = Test_support.Random_pa.make seed in
  toy m.name ~ticks:m.ticks ~goal:(Core.Pred.mem m.goal) m.pa

let random_fixtures = lazy (List.init 200 random_fixture)

let test_schedule_random () =
  List.iter
    (fun d ->
       with_session_pool d (fun () ->
           List.iter (check_schedule ~label:(pool_label d))
             (Lazy.force random_fixtures)))
    [ None; Some 2 ]

(* Zero-time reachability, reflexive and transitive, by brute force. *)
let zero_time_edges (a : _ Mdp.Arena.t) f =
  for s = 0 to a.Mdp.Arena.n - 1 do
    for k = a.Mdp.Arena.step_off.(s) to a.Mdp.Arena.step_off.(s + 1) - 1 do
      if not a.Mdp.Arena.tick.(k) then
        for o = a.Mdp.Arena.out_off.(k) to a.Mdp.Arena.out_off.(k + 1) - 1 do
          f s k a.Mdp.Arena.tgt.(o)
        done
    done
  done

let zero_time_reach (a : _ Mdp.Arena.t) =
  let n = a.Mdp.Arena.n in
  let r = Array.init n (fun s -> Array.init n (fun t -> s = t)) in
  zero_time_edges a (fun s _ t -> r.(s).(t) <- true);
  for m = 0 to n - 1 do
    for i = 0 to n - 1 do
      if r.(i).(m) then
        for j = 0 to n - 1 do
          if r.(m).(j) then r.(i).(j) <- true
        done
    done
  done;
  r

(* The order's contract: every state once, grouped into components
   listed successors first, members ascending, exact cyclic flags. *)
let check_order name (a : _ Mdp.Arena.t) =
  let module Z = Mdp.Zero_time in
  let z = Mdp.Arena.zero_time a in
  let n = a.Mdp.Arena.n in
  let comp = Z.components z in
  let seen = Array.make n 0 in
  Array.iter (fun s -> seen.(s) <- seen.(s) + 1) z.Z.order;
  Alcotest.(check bool) (name ^ ": every state once") true
    (Array.length z.Z.order = n && Array.for_all (( = ) 1) seen);
  let self_loop = Array.make n false in
  zero_time_edges a (fun s _ t ->
      if comp.(t) > comp.(s) then
        Alcotest.failf "%s: edge %d -> %d climbs from component %d to %d"
          name s t comp.(s) comp.(t);
      if s = t then self_loop.(s) <- true);
  for c = 0 to Z.num_components z - 1 do
    let lo = z.Z.comp_off.(c) and hi = z.Z.comp_off.(c + 1) in
    for i = lo + 1 to hi - 1 do
      if z.Z.order.(i - 1) >= z.Z.order.(i) then
        Alcotest.failf "%s: component %d not ascending" name c
    done;
    if z.Z.cyclic.(c) <> (hi - lo > 1 || self_loop.(z.Z.order.(lo))) then
      Alcotest.failf "%s: component %d cyclic flag" name c
  done;
  comp

let test_order_invariants () =
  List.iter
    (fun (Fixture f) ->
       ignore (check_order f.name f.arena);
       (* every zero-time step spends a per-slot budget only a tick
          refills, so each layer is one evaluation per state *)
       let z = Mdp.Arena.zero_time f.arena in
       Alcotest.(check bool) (f.name ^ ": acyclic zero-time graph") false
         (Array.exists Fun.id z.Mdp.Zero_time.cyclic))
    (Lazy.force fixtures);
  List.iter
    (fun (Fixture f) ->
       let comp = check_order f.name f.arena in
       let r = zero_time_reach f.arena in
       Array.iteri
         (fun i ri ->
            Array.iteri
              (fun j rij ->
                 if (comp.(i) = comp.(j)) <> (rij && r.(j).(i)) then
                   Alcotest.failf "%s: states %d, %d: component vs reachability"
                     f.name i j)
              ri)
         r)
    (Lazy.force schedule_fixtures @ Lazy.force random_fixtures)

(* [Zeno.check] reads the same components: against its definition, the
   first state in index order with a probabilistic zero-time step into
   a state that reaches it back names the offending component. *)
let test_zeno_definition () =
  List.iter
    (fun (Fixture f) ->
       let a = f.arena in
       let r = zero_time_reach a in
       let first = ref None in
       zero_time_edges a (fun s k t ->
           let probabilistic =
             a.Mdp.Arena.out_off.(k + 1) - a.Mdp.Arena.out_off.(k) > 1
           in
           if probabilistic && r.(t).(s) && !first = None then first := Some s);
       let expected =
         match !first with
         | None -> Mdp.Zeno.Ok
         | Some s ->
           Mdp.Zeno.Probabilistic_zero_time_cycle
             (List.filter
                (fun t -> r.(s).(t) && r.(t).(s))
                (List.init a.Mdp.Arena.n Fun.id))
       in
       if Mdp.Zeno.check a <> expected then
         Alcotest.failf "%s: Zeno verdict differs from its definition" f.name)
    (Lazy.force schedule_fixtures @ Lazy.force random_fixtures)

(* ------------------------------------------------------------------ *)
(* Expected-time value iteration as it stood before sweeps skipped
   settled states: every sweep evaluates every non-target finite state.
   [value_iterate] is copied verbatim, minus the minimizing objective
   the engine no longer has, as the reference the current engine must
   match bit for bit, sweep count and refusals included. *)

module Sweep_all = struct
  let value_iterate (a : _ Mdp.Arena.t) ~finite ~target ~epsilon
      ~max_sweeps =
    let n = a.Mdp.Arena.n in
    let step_off = a.Mdp.Arena.step_off and out_off = a.Mdp.Arena.out_off in
    let tgt = a.Mdp.Arena.tgt and prob_f = a.Mdp.Arena.prob_f in
    let tick = a.Mdp.Arena.tick in
    let v =
      Array.init n (fun i ->
          if target.(i) then 0.0
          else if finite.(i) then 0.0
          else infinity)
    in
    (* Loop-carried floats live in a scratch float array: float-array
       stores are unboxed (and barrier-free), whereas refs and function
       arguments would box one float per branch.  Slot 0 carries the
       running best over steps, slot 1 the branch-sum of the current
       step, slot 2 the sweep delta.  The [-inf] seed and the inlined
       comparison return the same values as the historical seeded
       [Float.max] fold: the iterates are nan-free and never produce
       [-0.], the only inputs where the formulations differ. *)
    let scratch = Array.make 3 0.0 in
    let state i lo hi =
      Array.unsafe_set scratch 0 neg_infinity;
      for k = lo to hi - 1 do
        Array.unsafe_set scratch 1 0.0;
        for o = Array.unsafe_get out_off k
                to Array.unsafe_get out_off (k + 1) - 1 do
          Array.unsafe_set scratch 1
            (Array.unsafe_get scratch 1
             +. Array.unsafe_get prob_f o
                *. Array.unsafe_get v (Array.unsafe_get tgt o))
        done;
        let e =
          (if Array.unsafe_get tick k then 1.0 else 0.0)
          +. Array.unsafe_get scratch 1
        in
        let cur = Array.unsafe_get scratch 0 in
        Array.unsafe_set scratch 0 (if e > cur then e else cur)
      done;
      let fresh = Array.unsafe_get scratch 0 in
      let d = Float.abs (fresh -. Array.unsafe_get v i) in
      if d > Array.unsafe_get scratch 2 then Array.unsafe_set scratch 2 d;
      Array.unsafe_set v i fresh
    in
    let sweep () =
      Array.unsafe_set scratch 2 0.0;
      for i = 0 to n - 1 do
        if (not (Array.unsafe_get target i)) && Array.unsafe_get finite i
        then begin
          let lo = Array.unsafe_get step_off i in
          let hi = Array.unsafe_get step_off (i + 1) in
          if hi > lo then state i lo hi else v.(i) <- infinity
        end
      done;
      Array.unsafe_get scratch 2
    in
    let rec go k =
      Core.Budget.poll ();
      if k > max_sweeps then
        failwith "Expected_time: value iteration did not converge"
      else if sweep () > epsilon then go (k + 1)
    in
    go 0;
    v

  let max_expected_ticks a ~target ~max_sweeps =
    let finite = Mdp.Qualitative.always_reaches a ~target in
    value_iterate a ~finite ~target ~epsilon:1e-12 ~max_sweeps

  (* The policy read off the reference values, as
     [max_expected_ticks_with_policy] reads it. *)
  let max_expected_ticks_with_policy (a : _ Mdp.Arena.t) ~target ~max_sweeps =
    let finite = Mdp.Qualitative.always_reaches a ~target in
    let v =
      value_iterate a ~finite ~target ~epsilon:1e-12 ~max_sweeps
    in
    let policy =
      Array.init a.Mdp.Arena.n (fun i ->
          let lo = a.Mdp.Arena.step_off.(i)
          and hi = a.Mdp.Arena.step_off.(i + 1) in
          if target.(i) || (not finite.(i)) || hi = lo then -1
          else begin
            let best_k = ref 0 and best_v = ref neg_infinity in
            for k = lo to hi - 1 do
              let e = ref (if a.Mdp.Arena.tick.(k) then 1.0 else 0.0) in
              let sum = ref 0.0 in
              for o = a.Mdp.Arena.out_off.(k) to a.Mdp.Arena.out_off.(k + 1) - 1
              do
                sum :=
                  !sum +. (a.Mdp.Arena.prob_f.(o) *. v.(a.Mdp.Arena.tgt.(o)))
              done;
              e := !e +. !sum;
              if !e > !best_v then begin
                best_v := !e;
                best_k := k - lo
              end
            done;
            !best_k
          end)
    in
    (v, policy)
end

(* Every expected-time entry point against [Sweep_all], compared by
   [Int64.bits_of_float], with the default sweep budget and with
   budgets small enough that some fixtures run out: both sides must
   then refuse alike. *)
let check_vi ~label (Fixture f) =
  let ctx what = Printf.sprintf "%s%s %s" label f.name what in
  let same_bits what expected got =
    match expected, got with
    | Values e, Values g ->
      Alcotest.(check int) (ctx (what ^ ": length")) (Array.length e)
        (Array.length g);
      Array.iteri
        (fun i x ->
           if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float g.(i)))
           then
             Alcotest.failf "%s: state %d: %h vs %h" (ctx what) i x g.(i))
        e
    | Refused, Refused -> ()
    | Values _, Refused ->
      Alcotest.failf "%s: refused, the reference converges" (ctx what)
    | Refused, Values _ ->
      Alcotest.failf "%s: converges, the reference refuses" (ctx what)
  in
  let refusing f =
    match f () with
    | v -> Values v
    | exception Failure m ->
      Alcotest.(check string) (ctx "refusal message")
        "Expected_time: value iteration did not converge" m;
      Refused
  in
  let module E = Mdp.Expected_time in
  let target = f.target in
  List.iter
    (fun max_sweeps ->
       let what name = Printf.sprintf "%s (max_sweeps %d)" name max_sweeps in
       same_bits (what "max_expected_ticks")
         (refusing (fun () ->
              Sweep_all.max_expected_ticks f.arena ~target ~max_sweeps))
         (refusing (fun () ->
              E.max_expected_ticks f.arena ~target ~max_sweeps ()));
       let policy_of g =
         match g () with
         | v, p -> (Values v, Some p)
         | exception Failure _ -> (Refused, None)
       in
       let v0, p0 =
         policy_of (fun () ->
             Sweep_all.max_expected_ticks_with_policy f.arena ~target
               ~max_sweeps)
       in
       let v1, p1 =
         policy_of (fun () ->
             E.max_expected_ticks_with_policy f.arena ~target ~max_sweeps ())
       in
       same_bits (what "policy values") v0 v1;
       Alcotest.(check (option (array int))) (ctx (what "policy")) p0 p1)
    [ 1_000_000; 0; 1; 3 ]

let test_vi_skips_settled () =
  let g2 = Models.lr ~sym:Analysis.Symmetry.On ~g:2 ~n:3 () in
  let g2 =
    Fixture
      { name = "lr g=2";
        expl = g2.LR.Proof.expl;
        arena = g2.LR.Proof.arena;
        is_tick = LR.Automaton.is_tick;
        target = Mdp.Explore.indicator g2.LR.Proof.expl LR.Regions.c;
        ticks = 5 }
  in
  List.iter (check_vi ~label:"") (Lazy.force fixtures);
  List.iter (check_vi ~label:"quotient ") (g2 :: Lazy.force quotients);
  List.iter (check_vi ~label:"")
    (Lazy.force schedule_fixtures @ Lazy.force random_fixtures)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "arena"
    [ ( "differential",
        [ Alcotest.test_case "finite horizon (all engines, all pools)" `Quick
            test_reach_differential;
          Alcotest.test_case "step-bounded" `Quick
            test_reach_steps_differential;
          Alcotest.test_case "minimizing policy" `Quick
            test_policy_differential;
          Alcotest.test_case "qualitative fixpoints" `Quick
            test_qualitative_differential;
          Alcotest.test_case "expected time" `Quick
            test_expected_time_differential;
          Alcotest.test_case "expected time skips settled states" `Quick
            test_vi_skips_settled;
          Alcotest.test_case "budgeted partial fragment" `Quick
            test_partial_fragment_differential ] );
      ( "plane",
        [ Alcotest.test_case "orbit quotient" `Quick test_plane_sym_quotient;
          Alcotest.test_case "interval VI bracket" `Quick
            test_interval_vi_bracket ] );
      ( "schedule",
        [ Alcotest.test_case "toys vs legacy (all engines, all pools)" `Quick
            test_schedule_differential;
          Alcotest.test_case "refusals" `Quick test_schedule_refusals;
          Alcotest.test_case "random models vs legacy" `Quick
            test_schedule_random;
          Alcotest.test_case "zero-time order invariants" `Quick
            test_order_invariants;
          Alcotest.test_case "Zeno against its definition" `Quick
            test_zeno_definition ] );
      ( "structure",
        [ Alcotest.test_case "CSR mirrors the fragment" `Quick
            test_arena_structure ] );
      ( "funtbl",
        [ Alcotest.test_case "find_or_add" `Quick test_find_or_add ] );
      ( "registry",
        [ Alcotest.test_case "memoizes instances" `Quick
            test_registry_memoizes ] ) ]
