type 's t = {
  sub : 's Pred.t;
  sup : 's Pred.t;
  evidence : string;
  is_axiom : bool;
}

let sub i = i.sub
let sup i = i.sup
let evidence i = i.evidence
let is_axiom i = i.is_axiom

let checked ~over sub sup =
  { sub; sup; evidence = Printf.sprintf "verified over %d states" over;
    is_axiom = false }

let verify ~states sub sup =
  if List.for_all (fun s -> not (Pred.mem sub s) || Pred.mem sup s) states
  then Some (checked ~over:(List.length states) sub sup)
  else None

let axiom ~reason sub sup = { sub; sup; evidence = reason; is_axiom = true }

let refl p =
  { sub = p; sup = p; evidence = "reflexivity"; is_axiom = false }

let in_union_left p q =
  { sub = p; sup = Pred.union p q; evidence = "left injection into union";
    is_axiom = false }

let pp fmt i =
  Format.fprintf fmt "%a ⊆ %a (%s)" Pred.pp i.sub Pred.pp i.sup i.evidence
