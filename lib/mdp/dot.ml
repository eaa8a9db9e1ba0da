let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write (a : _ Arena.t) ?(name = "mdp") ?(max_states = 500)
    ?(highlight = fun _ -> false) buf =
  let n = a.Arena.n in
  if n > max_states then
    invalid_arg
      (Printf.sprintf "Dot: %d states exceed the %d-state limit" n
         max_states);
  let pa = Arena.automaton a in
  let state_label i =
    escape (Format.asprintf "%a" (Core.Pa.pp_state pa) (Arena.state a i))
  in
  let action_label k =
    escape
      (Format.asprintf "%a" (Core.Pa.pp_action pa) a.Arena.actions.(k))
  in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" (escape name));
  Buffer.add_string buf "  rankdir=LR;\n  node [fontsize=10];\n";
  for i = 0 to n - 1 do
    let extra =
      if highlight (Arena.state a i) then
        ", style=filled, fillcolor=lightgray"
      else ""
    in
    Buffer.add_string buf
      (Printf.sprintf "  s%d [label=\"%s\", shape=box%s];\n" i
         (state_label i) extra)
  done;
  for i = 0 to n - 1 do
    for k = a.Arena.step_off.(i) to a.Arena.step_off.(i + 1) - 1 do
      let lo = a.Arena.out_off.(k) and hi = a.Arena.out_off.(k + 1) in
      if hi - lo = 1 then
        (* Dirac steps go straight to the target. *)
        Buffer.add_string buf
          (Printf.sprintf "  s%d -> s%d [label=\"%s\"];\n" i
             a.Arena.tgt.(lo) (action_label k))
      else begin
        (* The choice point keeps the historical [c<state>_<local step>]
           id so emitted graphs are textually unchanged. *)
        let choice = Printf.sprintf "c%d_%d" i (k - a.Arena.step_off.(i)) in
        Buffer.add_string buf
          (Printf.sprintf
             "  %s [label=\"%s\", shape=point];\n  s%d -> %s \
              [arrowhead=none];\n"
             choice (action_label k) i choice);
        for o = lo to hi - 1 do
          Buffer.add_string buf
            (Printf.sprintf "  %s -> s%d [label=\"%s\"];\n" choice
               a.Arena.tgt.(o)
               (escape (Proba.Rational.to_string a.Arena.prob_q.(o))))
        done
      end
    done
  done;
  Buffer.add_string buf "}\n"

let to_string a ?name ?max_states ?highlight () =
  let buf = Buffer.create 4096 in
  write a ?name ?max_states ?highlight buf;
  Buffer.contents buf
