type ('s, 'a, 'i) t = {
  label : string;
  pa : ('s, 'a) Core.Pa.t;
  spec : ('s, 'a) Symmetry.spec;
  is_tick : 'a -> bool;
  instance : ('s, 'a) Mdp.Arena.t -> Symmetry.certificate option -> 'i;
}

let build ?max_states ~sym d =
  let expl, cert =
    Symmetry.explored ~model:d.label ~mode:sym ?max_states d.spec d.pa
  in
  d.instance (Mdp.Arena.compile ~is_tick:d.is_tick expl) cert
