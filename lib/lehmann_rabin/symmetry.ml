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

(* Is [v] the image of [u] under [(pi, rho)], compared in place? *)
let rec procs_map pi (u : State.proc array) (v : State.proc array) i =
  i = Array.length u
  || (State.equal_proc u.(i) v.(pi.(i)) && procs_map pi u v (i + 1))

let rec res_map rho (u : bool array) (v : bool array) r =
  r = Array.length u || (Bool.equal u.(r) v.(rho.(r)) && res_map rho u v (r + 1))

let maps_to (pi, rho) (u : State.t) (v : State.t) =
  Array.length u.State.procs = Array.length v.State.procs
  && Array.length u.State.res = Array.length v.State.res
  && procs_map pi u.State.procs v.State.procs 0
  && res_map rho u.State.res v.State.res 0

let generators topo =
  List.map
    (fun (pi, rho) ->
       Analysis.Symmetry.with_maps_to (maps_to (pi, rho))
         (Analysis.Symmetry.generator ~name:(perm_name pi)
            ~on_state:(apply_state (pi, rho)) ~on_action:(apply_action pi)))
    (Topology.generators topo)

(* ------------------------------------------------------------------ *)
(* The orbit canonicalizer, in place.

   The generic one ([Analysis.Symmetry.canonicalizer]) closes the orbit
   by building every member and keeps the [Stdlib.compare] minimum.
   This one knows the group as a table of permutations and compares
   images without building them: image [e s] reads process [q] of [s]
   at [pinv.(e).(q)] and resource [r] at [rinv.(e).(r)], so two images
   compare position by position, in [Stdlib.compare]'s order, with no
   allocation.  Only the winning image is built.

   Which element builds it matters beyond its value: the winner's
   [proc] records are the ones [s] holds, placed by that element, and a
   snapshot marshals that sharing.  The closure builds each member from
   the element that first reached it, so where several elements give
   the minimum (the stabilizer of [s] is not trivial) the element must
   be the one the closure would have used.  Without ties the minimum
   has a single element and no replay is needed; a tie with the best
   so far is exactly a nontrivial stabilizer, and then the closure's
   discovery order is replayed over group elements ([replay]).  On
   every reachable state of the rings and stars checked (n = 3 and 4,
   g and k up to 2) the first least element in the group's own order
   was already the closure's; the replay makes that hold by
   construction, not by observation. *)

(* Rank of a region in [Stdlib.compare]'s order: constant constructors
   (immediates, in declaration order) below the ones with a side
   (blocks, by tag, then side). *)
let side_rank = function State.L -> 0 | State.R -> 1

let region_rank = function
  | State.Rem -> 0
  | State.Flip -> 1
  | State.Pre -> 2
  | State.Crit -> 3
  | State.Exit_f -> 4
  | State.Exit_r -> 5
  | State.Wait u -> 6 + side_rank u
  | State.Second u -> 8 + side_rank u
  | State.Drop u -> 10 + side_rank u
  | State.Exit_s u -> 12 + side_rank u

let compare_proc (p : State.proc) (q : State.proc) =
  if p == q then 0
  else
    let c = Int.compare (region_rank p.State.region) (region_rank q.State.region) in
    if c <> 0 then c
    else
      let c = Int.compare p.State.c q.State.c in
      if c <> 0 then c else Int.compare p.State.b q.State.b

(* [Stdlib.compare (image a s) (image b s)] from position [q] on, the
   processes first, then the resources. *)
let rec compare_res (res : bool array) ra rb r =
  if r = Array.length res then 0
  else
    let c = Bool.compare res.(ra.(r)) res.(rb.(r)) in
    if c <> 0 then c else compare_res res ra rb (r + 1)

let rec compare_images (s : State.t) pa ra pb rb q =
  if q = Array.length s.State.procs then compare_res s.State.res ra rb 0
  else
    let c = compare_proc s.State.procs.(pa.(q)) s.State.procs.(pb.(q)) in
    if c <> 0 then c else compare_images s pa ra pb rb (q + 1)

(* The group generated by a topology's generators.  Element [0] is the
   identity and the others follow in discovery order; [gen.(j).(e)] is
   the element "generator [j] after element [e]". *)
type group = {
  pinv : int array array;
  rinv : int array array;
  gen : int array array;
}

let inverse p =
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun i x -> inv.(x) <- i) p;
  inv

let group topo perms =
  let compose (gpi, grho) (hpi, hrho) =
    (Array.map (fun i -> gpi.(i)) hpi, Array.map (fun r -> grho.(r)) hrho)
  in
  let gens =
    List.map
      (fun g ->
         Analysis.Symmetry.generator ~name:"" ~on_state:(compose g)
           ~on_action:Fun.id)
      perms
  in
  let identity =
    ( Array.init (Topology.num_procs topo) Fun.id,
      Array.init (Topology.num_resources topo) Fun.id )
  in
  (* [orbit] lists the members newest first. *)
  let elements =
    Array.of_list
      (List.rev (Analysis.Symmetry.orbit ~hash:Hashtbl.hash ~equal:( = ) gens identity))
  in
  let index = Hashtbl.create (Array.length elements) in
  Array.iteri (fun e x -> Hashtbl.replace index x e) elements;
  { pinv = Array.map (fun (pi, _) -> inverse pi) elements;
    rinv = Array.map (fun (_, rho) -> inverse rho) elements;
    gen =
      Array.of_list
        (List.map
           (fun g -> Array.map (fun x -> Hashtbl.find index (compose g x)) elements)
           perms) }

let image grp (s : State.t) e =
  if e = 0 then s
  else begin
    let procs = s.State.procs and res = s.State.res in
    let pinv = grp.pinv.(e) and rinv = grp.rinv.(e) in
    let procs' = Array.make (Array.length procs) procs.(0) in
    for q = 0 to Array.length procs - 1 do
      procs'.(q) <- procs.(pinv.(q))
    done;
    let res' = Array.make (Array.length res) false in
    for r = 0 to Array.length res - 1 do
      res'.(r) <- res.(rinv.(r))
    done;
    { State.procs = procs'; res = res' }
  end

let compare_elements grp s a b =
  compare_images s grp.pinv.(a) grp.rinv.(a) grp.pinv.(b) grp.rinv.(b) 0

(* [Analysis.Symmetry.close] from [s], its members kept as the elements
   that built them: level by level, each level's members newest first,
   each generator in order, a new member for every image no member
   equals.  Returns the element that builds the minimum member. *)
let replay grp s =
  let size = Array.length grp.pinv in
  let members = Array.make size 0 and count = ref 1 in
  (* [known.(e)]: the member element [e] builds, once found. *)
  let known = Array.make size (-1) in
  known.(0) <- 0;
  let lo = ref 0 in
  while !lo < !count do
    let hi = !count in
    for x = hi - 1 downto !lo do
      for j = 0 to Array.length grp.gen - 1 do
        let e = grp.gen.(j).(members.(x)) in
        if known.(e) < 0 then begin
          let i = ref (!count - 1) in
          while !i >= 0 && compare_elements grp s e members.(!i) <> 0 do
            decr i
          done;
          if !i >= 0 then known.(e) <- !i
          else begin
            members.(!count) <- e;
            known.(e) <- !count;
            incr count
          end
        end
      done
    done;
    lo := hi
  done;
  let best = ref 0 in
  for m = 1 to !count - 1 do
    if compare_elements grp s members.(m) members.(!best) < 0 then best := m
  done;
  members.(!best)

let canon grp s =
  let best = ref 0 and tie = ref false in
  for e = 1 to Array.length grp.pinv - 1 do
    let c = compare_elements grp s e !best in
    if c < 0 then best := e else if c = 0 then tie := true
  done;
  image grp s (if !tie then replay grp s else !best)

let canonicalizer topo =
  match Topology.generators topo with
  | [] -> None
  | perms -> Some (canon (group topo perms))

let regions ~g =
  [ Regions.t; Regions.c; Regions.rt; Regions.f; Regions.p; g;
    Regions.p_or_c; Regions.rt_or_c ]

let declared ~extra ~preds topo =
  Analysis.Symmetry.spec
    ~preds:(preds @ List.map (fun (name, mem) -> Core.Pred.make name mem) extra)
    ?canon:(canonicalizer topo) (generators topo)

let spec ?(extra = []) topo =
  declared ~extra ~preds:(regions ~g:(Regions.g_of topo)) topo

(* The ring's certificates and snapshots record [G] twice: listing the
   one [G] value twice keeps their nine names, and the certifier
   evaluates it once per state. *)
let ring ?(extra = []) ~n () =
  let topo = Topology.ring n in
  let g = Regions.g_of topo in
  declared ~extra ~preds:(regions ~g @ [ g ]) topo
