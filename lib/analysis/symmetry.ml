module Q = Proba.Rational

type mode = Auto | On | Off

let mode_to_string = function Auto -> "auto" | On -> "on" | Off -> "off"

let mode_of_string = function
  | "auto" -> Some Auto
  | "on" -> Some On
  | "off" -> Some Off
  | _ -> None

type ('s, 'a) generator = {
  gen_name : string;
  on_state : 's -> 's;
  on_action : 'a -> 'a;
}

let generator ~name ~on_state ~on_action =
  { gen_name = name; on_state; on_action }

type ('s, 'a) spec = {
  generators : ('s, 'a) generator list;
  invariant_preds : (string * ('s -> bool)) list;
}

let spec ?(preds = []) generators = { generators; invariant_preds = preds }

exception Not_certified of string

(* ------------------------------------------------------------------ *)
(* Orbits.

   The orbit of a state under the group generated by the declared
   permutations, by closure: repeatedly apply every generator until no
   new state appears.  Rotation orbits hold at most the process count,
   but a full symmetric group's hold up to [n!] states (720 at n = 6),
   so membership is a newest-first scan of the members only while the
   orbit is small, and a table keyed by the automaton's [hash] once it
   outgrows [scan_limit] members (when the caller passes [hash]).
   Members are pairwise unequal, so both find the same index.

   [close] numbers the members in discovery order and returns them in
   an array, member [i] at index [i], with their count (the array may
   be longer).  Each level of the closure is the index range the level
   before it discovered, expanded newest first: that order fixes the
   numbering every caller relies on.  [edge x j y] is told that
   generator [j] maps member [x] to member [y], for every member and
   generator. *)

(* The index of [y] among members [0 .. i], scanning newest first;
   [-1] when it is not a member. *)
let index_of equal y members i =
  let i = ref i in
  while !i >= 0 && not (equal y members.(!i)) do
    decr i
  done;
  !i

let scan_limit = 32

let close ?(max_orbit = 40_320) ?hash ~equal ~edge gens s =
  let members = ref (Array.make 8 s) and count = ref 1 in
  let table = ref None in
  let lo = ref 0 in
  while !lo < !count do
    let hi = !count in
    for x = hi - 1 downto !lo do
      let sx = !members.(x) in
      for j = 0 to Array.length gens - 1 do
        let y = gens.(j).on_state sx in
        (* [!count] when [y] is new; the table numbers it so. *)
        let i =
          match !table with
          | Some t -> Mdp.Funtbl.find_or_add t y ignore
          | None ->
            let i = index_of equal y !members (!count - 1) in
            if i >= 0 then i else !count
        in
        if i < !count then edge x j i
        else if !count >= max_orbit then
          invalid_arg
            (Printf.sprintf
               "Symmetry.orbit: orbit exceeded %d states (is a declared \
                permutation really a bijection?)"
               max_orbit)
        else begin
          if !count = Array.length !members then begin
            let grown = Array.make (2 * !count) s in
            Array.blit !members 0 grown 0 !count;
            members := grown
          end;
          !members.(!count) <- y;
          edge x j !count;
          incr count;
          match hash, !table with
          | Some hash, None when !count > scan_limit ->
            let t = Mdp.Funtbl.create ~equal ~hash (4 * !count) in
            for m = 0 to !count - 1 do
              ignore (Mdp.Funtbl.find_or_add t !members.(m) ignore)
            done;
            table := Some t
          | _ -> ()
        end
      done
    done;
    lo := hi
  done;
  (!members, !count)

let no_edge _ _ _ = ()

let orbit ?max_orbit ?hash ~equal gens s =
  let members, k =
    close ?max_orbit ?hash ~equal ~edge:no_edge (Array.of_list gens) s
  in
  List.init k (fun p -> members.(k - 1 - p))

let canonicalizer ?(compare = Stdlib.compare) ?max_orbit ?hash ~equal spec =
  match spec.generators with
  | [] -> fun s -> s
  | gens ->
    let gens = Array.of_list gens in
    fun s ->
      let members, k = close ?max_orbit ?hash ~equal ~edge:no_edge gens s in
      let best = ref s in
      for p = k - 1 downto 0 do
        if compare members.(p) !best < 0 then best := members.(p)
      done;
      !best

(* ------------------------------------------------------------------ *)
(* Certificates. *)

type certificate = {
  cert_generators : (string * string) list;
  states_checked : int;
  full_states : int;
  reduced : bool;
  preds_checked : string list;
}

let certificate_to_json c =
  Json.Obj
    [ ( "generators",
        Json.Arr
          (List.map
             (fun (name, fp) ->
                Json.Obj
                  [ ("name", Json.Str name); ("fingerprint", Json.Str fp) ])
             c.cert_generators) );
      ("states_checked", Json.Int c.states_checked);
      ("full_states", Json.Int c.full_states);
      ("reduced", Json.Bool c.reduced);
      ("preds", Json.Arr (List.map (fun p -> Json.Str p) c.preds_checked)) ]

(* ------------------------------------------------------------------ *)
(* Equivariance verification. *)

(* Distribution support with outcomes merged up to [equal] -- the image
   of a distribution under a permutation may identify targets the
   original kept apart only when the permutation is NOT injective,
   which is exactly what the comparison below would then expose. *)
let rec merge_into ~equal t w = function
  | [] -> [ (t, w) ]
  | (t', w') :: rest when equal t t' -> (t', Q.add w w') :: rest
  | x :: rest -> x :: merge_into ~equal t w rest

let merged_support ~equal outs =
  List.fold_left (fun acc (t, w) -> merge_into ~equal t w acc) [] outs

(* [merged_support] of the g-image of [outs], without the image list. *)
let rec merged_image ~equal g acc = function
  | [] -> acc
  | (u, w) :: rest ->
    merged_image ~equal g (merge_into ~equal (g.on_state u) w acc) rest

let rec mem_outcome ~equal t w = function
  | [] -> false
  | (t', w') :: rest ->
    (equal t t' && Q.equal w w') || mem_outcome ~equal t w rest

(* Multiset equality of two merged supports.  Merged targets are
   pairwise unequal on each side, so an outcome of [a] can match at most
   one of [b] and no two of [a] match the same one: membership is
   enough. *)
let dist_equal ~equal a b =
  List.compare_lengths a b = 0
  && List.for_all (fun (t, w) -> mem_outcome ~equal t w b) a

(* What the checks read of one state, each computed once: an orbit
   member is the source of one check per generator and the target of
   one per generator too. *)
type ('s, 'a) facts = {
  state : 's;
  hash : int;
  steps : ('s, 'a) Core.Pa.step list;
  merged : ('a * ('s * Q.t) list) array;  (** [steps], supports merged *)
  holds : bool array;  (** the spec's predicates, in order *)
}

(* Does [t]'s multiset of (action, distribution) pairs equal the
   g-image of [s]'s, where [t] is [g s]?  Each image step takes the
   first unused target step it equals, which is multiset equality. *)
let rec take_first ~equal ~equal_action target used a outs i =
  i < Array.length target
  &&
  if
    (not used.(i))
    && (let a', outs' = target.(i) in
        equal_action a a' && dist_equal ~equal outs outs')
  then begin
    used.(i) <- true;
    true
  end
  else take_first ~equal ~equal_action target used a outs (i + 1)

let equivariant ~equal ~equal_action g s t =
  let target = t.merged in
  let used = Array.make (Array.length target) false in
  let rec all = function
    | [] -> true
    | st :: rest ->
      take_first ~equal ~equal_action target used
        (g.on_action st.Core.Pa.action)
        (merged_image ~equal g [] (Proba.Dist.support st.Core.Pa.dist))
        0
      && all rest
  in
  List.compare_length_with s.steps (Array.length target) = 0 && all s.steps

(* Deterministic 30-bit fingerprint accumulator: position-dependent
   mixing of the state hashes a generator was spot-checked at, printed
   as hex in the certificate so two runs over the same fragment can be
   compared at a glance. *)
let mix fp h = ((fp * 131) + h + 1) land 0x3FFFFFFF

(* [mix] is affine mod 2^30, so folding [m] hashes onto [fp] gives
   [fp * 131^m] plus the same fold started from 0: a fold split at any
   point is rejoined exactly from the two halves and the right half's
   length. *)
let join_fingerprints ~left ~right ~right_mixes =
  let rec pow acc b e =
    if e = 0 then acc
    else
      pow
        (if e land 1 = 1 then (acc * b) land 0x3FFFFFFF else acc)
        ((b * b) land 0x3FFFFFFF) (e lsr 1)
  in
  ((left * pow 1 131 right_mixes) + right) land 0x3FFFFFFF

(* Slot of each name: the index of its first occurrence.  Generators
   (predicates) sharing a name share one verdict, witness and
   fingerprint. *)
let slots names =
  Array.map
    (fun name ->
       let rec first j = if names.(j) = name then j else first (j + 1) in
       first 0)
    names

(* What one contiguous range of representatives found, per slot: the
   first PA030 and PA031 witness, and the fingerprint folded from 0
   with the number of hashes mixed into it. *)
type partial = {
  pa030 : string option array;
  pa031 : string option array;
  fps : int array;
  mixes : int array;
  checked : int;
  full : int;
}

(* Ranges merge left to right: the leftmost witness is the one a
   single pass in index order finds first, and the fingerprints rejoin
   exactly. *)
let merge a b =
  let first x y = match x with Some _ -> x | None -> y in
  { pa030 = Array.map2 first a.pa030 b.pa030;
    pa031 = Array.map2 first a.pa031 b.pa031;
    fps =
      Array.mapi
        (fun slot left ->
           join_fingerprints ~left ~right:b.fps.(slot)
             ~right_mixes:b.mixes.(slot))
        a.fps;
    mixes = Array.map2 ( + ) a.mixes b.mixes;
    checked = a.checked + b.checked;
    full = a.full + b.full }

(* Representatives are certified in fixed chunks of this many, claimed
   through a [Parallel.Fork.stream] region and merged in chunk order:
   the grid depends on nothing but the index, so the merge path is the
   same on any core count and schedule, and [join_fingerprints] makes
   it exact.  Small chunks keep both domains busy when orbits are large
   and representatives few: cold [check election -n 6 --sym on] (82
   representatives, orbits of about 50; 12 runs each on 2 cores) took
   a median 68 ms at 8, 79 ms at 16 and 82 ms at 32, while lr n=4
   (40 846 representatives) read 725, 723 and 751 ms. *)
let chunk = 16

(* The checks of [spec] over representatives of [pa]: [range state lo
   hi] checks [state lo .. state (hi - 1)] in order, and [finish] turns
   the ranges' results, in index order, into the diagnostics and the
   certificate of an [n]-state fragment.  [stride] samples an
   unreduced fragment; a reduced one is checked at every orbit member
   instead. *)
let certifier ~model ~reduced ?max_orbit ~stride spec pa =
  let equal = Core.Pa.equal_state pa in
  let equal_action = Core.Pa.equal_action pa in
  let hash = Core.Pa.hash_state pa in
  let pp_state s = Format.asprintf "%a" (Core.Pa.pp_state pa) s in
  let gens = Array.of_list spec.generators in
  let preds = Array.of_list spec.invariant_preds in
  let gnames = Array.map (fun g -> g.gen_name) gens in
  let pnames = Array.map fst preds in
  let ngens = Array.length gens in
  let gslot = slots gnames and pslot = slots pnames in
  let start030 = Array.make ngens None in
  (* Start-set invariance: the image of a start state must be a start
     state, else the permutation moves the automaton, not just its
     state space. *)
  let starts = Core.Pa.start pa in
  Array.iteri
    (fun j g ->
       List.iter
         (fun s0 ->
            let img = g.on_state s0 in
            if not (List.exists (equal img) starts)
            && start030.(gslot.(j)) = None
            then
              start030.(gslot.(j)) <-
                Some
                  (Printf.sprintf
                     "start state %s maps to %s, which is not a start state"
                     (pp_state s0) (pp_state img)))
         starts)
    gens;
  let facts s =
    let steps = Core.Pa.enabled pa s in
    { state = s;
      hash = hash s;
      steps;
      merged =
        Array.of_list
          (List.map
             (fun st ->
                ( st.Core.Pa.action,
                  merged_support ~equal (Proba.Dist.support st.Core.Pa.dist)
                ))
             steps);
      holds = Array.map (fun (_, pred) -> pred s) preds }
  in
  (* Representatives [lo, hi), checked in order.  A slot with a start
     witness is skipped here exactly as it is after any other witness. *)
  let range state lo hi =
    let pa030 = Array.copy start030 in
    let pa031 = Array.make (Array.length preds) None in
    let fps = Array.make ngens 0 and mixes = Array.make ngens 0 in
    let full_states = ref 0 and states_checked = ref 0 in
    (* [s] against [targets.(j)], its image under generator [j]. *)
    let check s targets =
      incr states_checked;
      Array.iteri
        (fun j g ->
           let slot = gslot.(j) in
           if pa030.(slot) = None then begin
             let t = targets.(j) in
             fps.(slot) <- mix fps.(slot) (s.hash + t.hash);
             mixes.(slot) <- mixes.(slot) + 1;
             if not (equivariant ~equal ~equal_action g s t) then
               pa030.(slot) <-
                 Some
                   (Printf.sprintf "steps(%s) is not the %s-image of steps(%s)"
                      (pp_state t.state) g.gen_name (pp_state s.state))
           end)
        gens;
      Array.iteri
        (fun q pname ->
           let slot = pslot.(q) in
           if pa031.(slot) = None then begin
             let here = s.holds.(q) in
             Array.iteri
               (fun j g ->
                  let t = targets.(j) in
                  if pa031.(slot) = None && t.holds.(q) <> here then
                    pa031.(slot) <-
                      Some
                        (Printf.sprintf
                           "%s holds of %s but not of its %s-image %s" pname
                           (pp_state (if here then s.state else t.state))
                           g.gen_name
                           (pp_state (if here then t.state else s.state))))
               gens
           end)
        pnames
    in
    (* Check a set of states in order.  [image p j] is the index in the
       set of generator [j]'s image of member [p], or [-1] when the set
       does not hold it and the image is computed directly. *)
    let check_set members image =
      Array.iteri
        (fun p s ->
           check s
             (Array.mapi
                (fun j g ->
                   let i = image p j in
                   if i >= 0 then members.(i) else facts (g.on_state s.state))
                gens))
        members
    in
    (* The orbit closure's image table by discovery index, reused from
       orbit to orbit. *)
    let edges = ref [||] in
    let edge x j y =
      let at = (x * ngens) + j in
      if at >= Array.length !edges then begin
        let grown = Array.make (2 * (at + 1)) 0 in
        Array.blit !edges 0 grown 0 (Array.length !edges);
        edges := grown
      end;
      !edges.(at) <- y
    in
    for i = lo to hi - 1 do
      let rep = state i in
      if reduced then begin
        (* A reduced fragment stores one representative per orbit;
           checking equivariance at EVERY orbit member is what makes
           the certificate cover the unreduced reachable set: the
           orbits of the representatives are exactly the reachable
           states of the full automaton.  The orbit is closed, so every
           image is a member; member [p] of the newest-first array has
           discovery index [k - 1 - p]. *)
        let members, k = close ?max_orbit ~hash ~equal ~edge gens rep in
        full_states := !full_states + k;
        let members = Array.init k (fun p -> facts members.(k - 1 - p)) in
        check_set members (fun p j ->
            k - 1 - !edges.(((k - 1 - p) * ngens) + j))
      end
      else begin
        incr full_states;
        if i mod stride = 0 then check_set [| facts rep |] (fun _ _ -> -1)
      end
    done;
    { pa030; pa031; fps; mixes; checked = !states_checked;
      full = !full_states }
  in
  let finish parts ~n ~state =
    (* The empty range is the identity of [merge]. *)
    let { pa030; pa031; fps; checked; full; _ } =
      Array.fold_left merge (range state 0 0) parts
    in
    (* One diagnostic per declared name whose slot holds a witness. *)
    let failed slot table names diag =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun i name ->
                 match table.(slot.(i)) with
                 | Some w -> [ diag name w ]
                 | None -> [])
              names))
    in
    let diags =
      failed gslot pa030 gnames (fun name w ->
          Diagnostic.v ~witness:w Diagnostic.PA030 Diagnostic.Error ~model
            (Printf.sprintf
               "declared permutation %s is not an automorphism of the \
                explored fragment"
               name))
      @ failed pslot pa031 pnames (fun pname w ->
          Diagnostic.v ~witness:w Diagnostic.PA031 Diagnostic.Error ~model
            (Printf.sprintf
               "predicate %s is not invariant under the declared symmetry \
                group; orbit reduction would be unsound"
               pname))
    in
    if diags <> [] || ngens = 0 then (diags, None)
    else begin
      let cert =
        { cert_generators =
            Array.to_list
              (Array.mapi
                 (fun j name -> (name, Printf.sprintf "%08x" fps.(gslot.(j))))
                 gnames);
          states_checked = checked;
          full_states = full;
          reduced;
          preds_checked = Array.to_list pnames }
      in
      (* PA032: the group is certified but the fragment was explored
         unreduced -- measure what reduction would save. *)
      let advisory =
        if reduced then []
        else begin
          let canon = canonicalizer ~hash ~equal spec in
          let reps = Mdp.Funtbl.create ~equal ~hash 1024 in
          for i = 0 to n - 1 do
            ignore (Mdp.Funtbl.find_or_add reps (canon (state i)) ignore)
          done;
          let distinct = Mdp.Funtbl.length reps in
          if distinct < n then
            [ Diagnostic.v Diagnostic.PA032 Diagnostic.Info ~model
                (Printf.sprintf
                   "model is symmetric under the certified group but was \
                    explored unreduced: %d states collapse to %d orbit \
                    representatives (%.2fx); explore with symmetry \
                    reduction (--sym on) to check the quotient"
                   n distinct
                   (float_of_int n /. float_of_int distinct)) ]
          else []
        end
      in
      (advisory, Some cert)
    end
  in
  (range, finish)

let verify ~model ?(reduced = false) ?max_orbit ?(max_checks = 1_000_000)
    ?helpers spec expl =
  let n = Mdp.Explore.num_states expl in
  let ngens = List.length spec.generators in
  (* Check every state of every orbit when that fits [max_checks]
     (state, generator) evaluations; otherwise stride-sample the
     representatives.  The certificate records actual coverage. *)
  let budget_per_gen = if ngens = 0 then max_checks else max_checks / ngens in
  let stride =
    if reduced then 1 (* orbit expansion handles the volume *)
    else max 1 ((n + budget_per_gen - 1) / max 1 budget_per_gen)
  in
  let range, finish =
    certifier ~model ~reduced ?max_orbit ~stride spec
      (Mdp.Explore.automaton expl)
  in
  let state = Mdp.Explore.state expl in
  (* The whole fragment is published at once: the same chunk grid and
     merge as {!explored}'s streamed certification. *)
  let parts =
    if ngens = 0 then [||]
    else
      snd
        (Parallel.Fork.stream ?helpers ~chunk
           (fun ~publish -> publish n)
           (range state))
  in
  finish parts ~n ~state

(* The [Not_certified] payload: every refusing diagnostic, or the one
   refusal [verify] has no diagnostic for (an empty generator list). *)
let rejected ~model diags =
  let reason =
    match diags with
    | [] -> "no symmetry generators declared"
    | _ ->
      String.concat "; "
        (List.map
           (fun d ->
              Printf.sprintf "%s: %s"
                (Diagnostic.code_name d.Diagnostic.code)
                d.Diagnostic.message)
           diags)
  in
  Printf.sprintf "%s: symmetry reduction rejected: %s" model reason

let explored ~model ~mode ?max_states ?max_orbit ?helpers spec pa =
  match mode with
  | Off -> (Mdp.Explore.run ?max_states pa, None)
  | On | Auto ->
    let equal = Core.Pa.equal_state pa in
    let canon =
      canonicalizer ?max_orbit ~hash:(Core.Pa.hash_state pa) ~equal spec
    in
    let range, finish =
      certifier ~model ~reduced:true ?max_orbit ~stride:1 spec pa
    in
    let expl, parts =
      match spec.generators with
      | [] -> (Mdp.Explore.run ?max_states ~canon pa, [||])
      | _ :: _ ->
        (* The representatives as they are interned, for the chunks
           certified while the exploration runs.  The store is grown by
           copying and swapped through the [Atomic], so a consumer
           reading it after the publish that covers its chunk sees
           every representative of that chunk. *)
        let reps = Atomic.make [||] in
        let keep i s =
          let a = Atomic.get reps in
          if i < Array.length a then a.(i) <- s
          else begin
            (* Filled with [s], so slot [i] already holds it. *)
            let grown = Array.make (Int.max 1024 (2 * i)) s in
            Array.blit a 0 grown 0 i;
            Atomic.set reps grown
          end
        in
        Parallel.Fork.stream ?helpers ~chunk
          (fun ~publish ->
             Mdp.Explore.run ?max_states ~canon
               ~on_intern:(fun i s ->
                   keep i s;
                   publish (i + 1))
               pa)
          (range (fun i -> (Atomic.get reps).(i)))
    in
    (match
       finish parts ~n:(Mdp.Explore.num_states expl)
         ~state:(Mdp.Explore.state expl)
     with
     | _, Some cert -> (expl, Some cert)
     | diags, None ->
       (* [Auto] falls back to the unreduced exploration; [On] was an
          explicit demand, so failing to certify is an error. *)
       if mode = On then raise (Not_certified (rejected ~model diags));
       (Mdp.Explore.run ?max_states pa, None))

let require ~model = function
  | diags, Some cert -> (diags, cert)
  | diags, None -> raise (Not_certified (rejected ~model diags))
