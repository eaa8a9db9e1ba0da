(* The element bodies of a /batch reply, as the exact bytes the daemon
   spliced in.  Reparsing and reserializing would not prove the bytes
   equal the CLI's, so this walks the envelope and cuts each "body"
   value out verbatim. *)

let fail () = failwith "malformed /batch envelope"

let rec skip_ws s i =
  if i < String.length s && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\r' || s.[i] = '\t')
  then skip_ws s (i + 1)
  else i

let expect s i c =
  let i = skip_ws s i in
  if i < String.length s && s.[i] = c then i + 1 else fail ()

(* Index just past the string literal opening at [i]. *)
let rec skip_string s i =
  if i >= String.length s then fail ()
  else
    match s.[i] with
    | '"' -> i + 1
    | '\\' -> skip_string s (i + 2)
    | _ -> skip_string s (i + 1)

let string_at s i =
  let i = expect s i '"' in
  let j = skip_string s i in
  (String.sub s i (j - i - 1), j)

(* Index just past the JSON value starting at or after [i]. *)
let rec skip_value s i =
  let i = skip_ws s i in
  if i >= String.length s then fail ()
  else
    match s.[i] with
    | '"' -> skip_string s (i + 1)
    | '{' -> skip_members s (i + 1) (fun _ j -> skip_value s j)
    | '[' -> skip_elements s (i + 1) (fun j -> skip_value s j)
    | _ ->
      let rec scalar j =
        if j < String.length s
        && not (List.mem s.[j] [ ','; '}'; ']'; ' '; '\n'; '\r'; '\t' ])
        then scalar (j + 1)
        else j
      in
      scalar i

(* Walk an object's members from just past its '{'; [member key i]
   consumes the value after the colon at [i] and returns the index past
   it. *)
and skip_members s i member =
  let i = skip_ws s i in
  if i < String.length s && s.[i] = '}' then i + 1
  else
    let rec loop i =
      let key, i = string_at s i in
      let i = member key (expect s i ':') in
      let i = skip_ws s i in
      if i < String.length s && s.[i] = ',' then loop (i + 1)
      else expect s i '}'
    in
    loop i

and skip_elements s i element =
  let i = skip_ws s i in
  if i < String.length s && s.[i] = ']' then i + 1
  else
    let rec loop i =
      let i = element i in
      let i = skip_ws s i in
      if i < String.length s && s.[i] = ',' then loop (i + 1)
      else expect s i ']'
    in
    loop i

(* [(status, body bytes)] per element, in order. *)
let bodies s =
  let out = ref [] in
  let element i =
    let status = ref 0 and body = ref None in
    let i = expect s i '{' in
    skip_members s i (fun key j ->
        match key with
        | "status" ->
          let k = skip_value s j in
          (match int_of_string_opt (String.trim (String.sub s j (k - j))) with
           | Some v -> status := v
           | None -> fail ());
          k
        | "body" ->
          let j = skip_ws s j in
          let k = skip_value s j in
          body := Some (String.sub s j (k - j));
          k
        | _ -> skip_value s j)
    |> fun k ->
    (match !body with
     | Some b -> out := (!status, b) :: !out
     | None -> fail ());
    k
  in
  let i = expect s 0 '{' in
  ignore
    (skip_members s i (fun key j ->
         if key = "results" then skip_elements s (expect s j '[') element
         else skip_value s j));
  List.rev !out
