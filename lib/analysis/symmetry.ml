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
  maps_to : ('s -> 's -> bool) option;
}

let generator ~name ~on_state ~on_action =
  { gen_name = name; on_state; on_action; maps_to = None }

let with_maps_to maps_to g = { g with maps_to = Some maps_to }

type ('s, 'a) spec = {
  generators : ('s, 'a) generator list;
  invariant_preds : 's Core.Pred.t list;
  canon : ('s -> 's) option;
}

(* The certifier packs a member's predicates into one int. *)
let max_preds = Sys.int_size - 1

let spec ?(preds = []) ?canon generators =
  if List.length preds > max_preds then
    invalid_arg
      (Printf.sprintf "Symmetry.spec: %d predicates, at most %d"
         (List.length preds) max_preds);
  { generators; invariant_preds = preds; canon }

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

let canonicalizer ?compare ?max_orbit ?hash ~equal spec =
  match spec.canon, compare, spec.generators with
  | Some canon, None, _ -> canon
  | _, _, [] -> fun s -> s
  | _, compare, gens ->
    let compare = Option.value compare ~default:Stdlib.compare in
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
(* Equivariance verification.

   What the checks read of a state -- its hash, its predicates packed
   into one int, and its enabled steps with each support merged up to
   [equal] -- is computed once per state into [facts]: flat arrays a
   range of representatives reuses from state to state, so checking an
   orbit member allocates no closure, list or array of its own.  An
   orbit member is the source of one check per generator and the target
   of one per generator too.  Facts are numbered as they are added;
   fact [m]'s steps are [soff.(m) .. soff.(m + 1) - 1] and step [k]'s
   merged outcomes [ooff.(k) .. ooff.(k + 1) - 1], in first-occurrence
   order. *)

type ('s, 'a) facts = {
  mutable len : int;
  mutable st : 's array;
  mutable hs : int array;
  mutable mask : int array;  (** bit [q]: predicate [q] holds *)
  mutable soff : int array;
  mutable act : 'a array;
  mutable ooff : int array;
  mutable tgt : 's array;
  mutable w : Q.t array;
  (* Scratch of one equivariance check: the merged image of a step's
     outcomes, and the target steps already matched (stamped). *)
  mutable img : 's array;
  mutable img_w : Q.t array;
  mutable used : int array;
  mutable stamp : int;
}

(* [arr], or a copy with room for [n] entries, new ones [fill]. *)
let room arr n fill =
  if n <= Array.length arr then arr
  else begin
    let grown = Array.make (Int.max n (2 * Array.length arr)) fill in
    Array.blit arr 0 grown 0 (Array.length arr);
    grown
  end

let no_facts () =
  { len = 0; st = [||]; hs = [||]; mask = [||]; soff = [| 0 |];
    act = [||]; ooff = [| 0 |]; tgt = [||]; w = [||]; img = [||];
    img_w = [||]; used = [||]; stamp = 0 }

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
  pa033 : string option;  (** the first representative not its orbit's minimum *)
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
    pa033 = first a.pa033 b.pa033;
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

(* How [certifier] packs the predicates: [plan] lists the indices in
   evaluation order, and a union both of whose operands are listed (by
   physical identity) gets [left]/[right], its operands' indices, and
   the OR of their bits instead of a call; its operands come before it
   in [plan].  A predicate listed again (the same value) copies the bit
   of its first listing: both its indices are that one. *)
let pred_plan preds =
  let n = Array.length preds in
  let index p =
    let rec go q = if q = n then -1 else if preds.(q) == p then q else go (q + 1) in
    go 0
  in
  let left = Array.make n (-1) and right = Array.make n (-1) in
  Array.iteri
    (fun q p ->
       match Core.Pred.operands p with
       | _ when index p < q ->
         left.(q) <- index p;
         right.(q) <- index p
       | Some (l, r) when index l >= 0 && index r >= 0 ->
         left.(q) <- index l;
         right.(q) <- index r
       | Some _ | None -> ())
    preds;
  let placed = Array.make n false and plan = ref [] in
  let rec place q =
    if not placed.(q) then begin
      placed.(q) <- true;
      if left.(q) >= 0 then begin
        place left.(q);
        place right.(q)
      end;
      plan := q :: !plan
    end
  in
  for q = 0 to n - 1 do
    place q
  done;
  (Array.of_list (List.rev !plan), left, right)

(* The checks of [spec] over representatives of [pa]: [range state lo
   hi] checks [state lo .. state (hi - 1)] in order, and [finish] turns
   the ranges' results, in index order, into the diagnostics and the
   certificate of an [n]-state fragment.  [stride] samples an
   unreduced fragment; a reduced one is checked at every orbit member
   instead, and each representative must be the [Stdlib.compare]
   minimum of its orbit (PA033). *)
let certifier ~model ~reduced ?max_orbit ~stride spec pa =
  let equal = Core.Pa.equal_state pa in
  let equal_action = Core.Pa.equal_action pa in
  let hash = Core.Pa.hash_state pa in
  let pp_state s = Format.asprintf "%a" (Core.Pa.pp_state pa) s in
  let gens = Array.of_list spec.generators in
  let preds = Array.of_list spec.invariant_preds in
  let gnames = Array.map (fun g -> g.gen_name) gens in
  let pnames = Array.map Core.Pred.name preds in
  let ngens = Array.length gens in
  let gslot = slots gnames and pslot = slots pnames in
  let plan, left, right = pred_plan preds in
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
  let mask_of s =
    let m = ref 0 in
    for i = 0 to Array.length plan - 1 do
      let q = plan.(i) in
      let holds =
        if left.(q) < 0 then Core.Pred.mem preds.(q) s
        else ((!m lsr left.(q)) lor (!m lsr right.(q))) land 1 = 1
      in
      if holds then m := !m lor (1 lsl q)
    done;
    !m
  in
  (* Facts of [s], appended to [f].  Every helper takes what varies as
     arguments, so none allocates a closure per call.  The step being
     added is [k], its outcomes from [ooff.(k)] on; an outcome with an
     earlier outcome's target is merged into it. *)
  let rec merge_into f t w o o1 =
    o < o1
    && (if equal t f.tgt.(o) then begin
          f.w.(o) <- Q.add w f.w.(o);
          true
        end
        else merge_into f t w (o + 1) o1)
  in
  let rec add_outcomes f k = function
    | [] -> ()
    | (t, w) :: rest ->
      let o1 = f.ooff.(k + 1) in
      if not (merge_into f t w f.ooff.(k) o1) then begin
        if o1 >= Array.length f.tgt then begin
          f.tgt <- room f.tgt (o1 + 1) t;
          f.w <- room f.w (Array.length f.tgt) w
        end;
        f.tgt.(o1) <- t;
        f.w.(o1) <- w;
        f.ooff.(k + 1) <- o1 + 1
      end;
      add_outcomes f k rest
  in
  let rec add_steps f = function
    | [] -> ()
    | st :: rest ->
      let k = f.soff.(f.len + 1) in
      if k >= Array.length f.act then
        f.act <- room f.act (k + 1) st.Core.Pa.action;
      if k + 1 >= Array.length f.ooff then f.ooff <- room f.ooff (k + 2) 0;
      f.act.(k) <- st.Core.Pa.action;
      f.ooff.(k + 1) <- f.ooff.(k);
      f.soff.(f.len + 1) <- k + 1;
      add_outcomes f k (Proba.Dist.support st.Core.Pa.dist);
      add_steps f rest
  in
  let add_facts f s =
    let m = f.len in
    if m >= Array.length f.st then begin
      f.st <- room f.st (m + 1) s;
      f.hs <- room f.hs (Array.length f.st) 0;
      f.mask <- room f.mask (Array.length f.st) 0;
      f.soff <- room f.soff (Array.length f.st + 1) 0
    end;
    f.st.(m) <- s;
    f.hs.(m) <- hash s;
    f.mask.(m) <- mask_of s;
    f.soff.(m + 1) <- f.soff.(m);
    add_steps f (Core.Pa.enabled pa s);
    f.len <- m + 1
  in
  (* The merged [g]-image of outcomes [o .. o1 - 1] into [img], whose
     first [len] entries are taken; returns the image's length. *)
  let rec image_into f u w i len =
    if i = len then begin
      if len >= Array.length f.img then begin
        f.img <- room f.img (len + 1) u;
        f.img_w <- room f.img_w (Array.length f.img) w
      end;
      f.img.(len) <- u;
      f.img_w.(len) <- w;
      len + 1
    end
    else if equal u f.img.(i) then begin
      f.img_w.(i) <- Q.add w f.img_w.(i);
      len
    end
    else image_into f u w (i + 1) len
  in
  let rec image f g len o o1 =
    if o = o1 then len
    else image f g (image_into f (g.on_state f.tgt.(o)) f.w.(o) 0 len) (o + 1) o1
  in
  let rec mem f u w o o1 =
    o < o1 && ((equal u f.tgt.(o) && Q.equal w f.w.(o)) || mem f u w (o + 1) o1)
  in
  let rec all f len i k' =
    i = len
    || (mem f f.img.(i) f.img_w.(i) f.ooff.(k') f.ooff.(k' + 1)
        && all f len (i + 1) k')
  in
  (* Through the generator's own [maps_to], no image is built: outcome
     [o] of the source step against the outcomes of target step [k']. *)
  let rec mem_in_place f maps_to u w o o1 =
    o < o1
    && ((maps_to u f.tgt.(o) && Q.equal w f.w.(o))
        || mem_in_place f maps_to u w (o + 1) o1)
  in
  let rec all_in_place f maps_to o o1 k' =
    o = o1
    || (mem_in_place f maps_to f.tgt.(o) f.w.(o) f.ooff.(k') f.ooff.(k' + 1)
        && all_in_place f maps_to (o + 1) o1 k')
  in
  (* Does target step [k'] carry the image of step [k]'s distribution,
     of [len] merged outcomes? *)
  let carries f g len k k' =
    f.ooff.(k' + 1) - f.ooff.(k') = len
    &&
    match g.maps_to with
    | None -> all f len 0 k'
    | Some maps_to -> all_in_place f maps_to f.ooff.(k) f.ooff.(k + 1) k'
  in
  (* The first unmatched step [k' < t1] with action [a] and the image
     distribution, now matched. *)
  let rec take f g k a len k' t1 =
    k' < t1
    &&
    if
      f.used.(k') <> f.stamp
      && equal_action a f.act.(k')
      && carries f g len k k'
    then begin
      f.used.(k') <- f.stamp;
      true
    end
    else take f g k a len (k' + 1) t1
  in
  let rec steps f g k s1 t0 t1 =
    k = s1
    ||
    let len =
      match g.maps_to with
      | None -> image f g 0 f.ooff.(k) f.ooff.(k + 1)
      | Some _ -> f.ooff.(k + 1) - f.ooff.(k)
    in
    take f g k (g.on_action f.act.(k)) len t0 t1 && steps f g (k + 1) s1 t0 t1
  in
  (* Does fact [t]'s multiset of (action, merged distribution) pairs
     equal the [g]-image of fact [m]'s, where [t] is [g m]?  Each image
     step takes the first unmatched target step it equals, which is
     multiset equality.  Merged targets are pairwise unequal on each
     side, so an image outcome can match at most one target outcome and
     membership decides each distribution.  The image distribution is
     built and merged up to [equal] unless [g] has [maps_to]; a
     bijection maps unequal outcomes to unequal images, so there is
     nothing to merge. *)
  let equivariant f g m t =
    let s0 = f.soff.(m) and s1 = f.soff.(m + 1) in
    let t0 = f.soff.(t) and t1 = f.soff.(t + 1) in
    s1 - s0 = t1 - t0
    && begin
      f.stamp <- f.stamp + 1;
      if f.soff.(f.len) > Array.length f.used then
        f.used <- room f.used f.soff.(f.len) 0;
      steps f g s0 s1 t0 t1
    end
  in
  (* Representatives [lo, hi), checked in order.  A slot with a start
     witness is skipped here exactly as it is after any other witness. *)
  let range state lo hi =
    let pa030 = Array.copy start030 in
    let pa031 = Array.make (Array.length preds) None in
    let pa033 = ref None in
    let fps = Array.make ngens 0 and mixes = Array.make ngens 0 in
    let full_states = ref 0 and states_checked = ref 0 in
    let f = no_facts () in
    (* [targets.(j)]: the fact that is generator [j]'s image of the one
       being checked. *)
    let targets = Array.make ngens 0 in
    let check m =
      incr states_checked;
      for j = 0 to ngens - 1 do
        let slot = gslot.(j) in
        if pa030.(slot) = None then begin
          let t = targets.(j) in
          fps.(slot) <- mix fps.(slot) (f.hs.(m) + f.hs.(t));
          mixes.(slot) <- mixes.(slot) + 1;
          if not (equivariant f gens.(j) m t) then
            pa030.(slot) <-
              Some
                (Printf.sprintf "steps(%s) is not the %s-image of steps(%s)"
                   (pp_state f.st.(t)) gens.(j).gen_name (pp_state f.st.(m)))
        end
      done;
      (* One comparison per generator when no predicate tells [m] from
         its images; otherwise the first witness, by predicate, then
         generator. *)
      let here = f.mask.(m) in
      let differ = ref 0 in
      for j = 0 to ngens - 1 do
        differ := !differ lor (here lxor f.mask.(targets.(j)))
      done;
      if !differ <> 0 then
        for q = 0 to Array.length preds - 1 do
          let slot = pslot.(q) in
          let holds x = (f.mask.(x) lsr q) land 1 = 1 in
          for j = 0 to ngens - 1 do
            let t = targets.(j) in
            if pa031.(slot) = None && holds t <> holds m then begin
              let yes, no = if holds m then (m, t) else (t, m) in
              pa031.(slot) <-
                Some
                  (Printf.sprintf "%s holds of %s but not of its %s-image %s"
                     pnames.(q) (pp_state f.st.(yes)) gens.(j).gen_name
                     (pp_state f.st.(no)))
            end
          done
        done
    in
    (* The orbit closure's image table by discovery index, reused from
       orbit to orbit. *)
    let edges = ref [||] in
    let edge x j y =
      let at = (x * ngens) + j in
      if at >= Array.length !edges then edges := room !edges (at + 1) 0;
      !edges.(at) <- y
    in
    for i = lo to hi - 1 do
      let rep = state i in
      f.len <- 0;
      if reduced then begin
        (* A reduced fragment stores one representative per orbit;
           checking equivariance at EVERY orbit member is what makes
           the certificate cover the unreduced reachable set: the
           orbits of the representatives are exactly the reachable
           states of the full automaton, provided no orbit has two
           representatives -- which holds when each is its orbit's
           minimum.  The orbit is closed, so every image is a member:
           fact [d] is member [d] in discovery order, and the members
           are checked newest first. *)
        let members, k = close ?max_orbit ~hash ~equal ~edge gens rep in
        full_states := !full_states + k;
        for d = 0 to k - 1 do
          add_facts f members.(d)
        done;
        if !pa033 = None then begin
          let least = ref rep in
          for d = 1 to k - 1 do
            if Stdlib.compare members.(d) !least < 0 then least := members.(d)
          done;
          if !least != rep then
            pa033 :=
              Some
                (Printf.sprintf "representative %s; its orbit member %s is smaller"
                   (pp_state rep) (pp_state !least))
        end;
        for d = k - 1 downto 0 do
          for j = 0 to ngens - 1 do
            targets.(j) <- !edges.((d * ngens) + j)
          done;
          check d
        done
      end
      else begin
        incr full_states;
        if i mod stride = 0 then begin
          add_facts f rep;
          for j = 0 to ngens - 1 do
            add_facts f (gens.(j).on_state rep);
            targets.(j) <- j + 1
          done;
          check 0
        end
      end
    done;
    { pa030; pa031; pa033 = !pa033; fps; mixes; checked = !states_checked;
      full = !full_states }
  in
  let finish parts ~n ~state =
    (* The empty range is the identity of [merge]. *)
    let { pa030; pa031; pa033; fps; checked; full; _ } =
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
      @
      match pa033 with
      | Some w ->
        [ Diagnostic.v ~witness:w Diagnostic.PA033 Diagnostic.Error ~model
            "an orbit representative is not the Stdlib.compare minimum of \
             its orbit, so the quotient may hold an orbit twice; orbit \
             reduction would be unsound" ]
      | None -> []
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
