(* golden.tsv: the MD5 of the body `prtb check --format json` or
   `prtb check --emit-cert` prints for every query of the universe.
   Every CLI stdout, served body and /batch element is checked against
   it, which is also how the benchmark holds the served == CLI
   invariant.  Regenerate with `prtb_bench golden` after a change that
   is meant to alter bodies. *)

let path = "bench/e2e/golden.tsv"

type t = (string, string) Hashtbl.t

let digest body = Digest.to_hex (Digest.string body)

let load file =
  let table = Hashtbl.create 128 in
  In_channel.with_open_text file (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line when line = "" || line.[0] = '#' -> loop ()
        | Some line ->
          (match String.split_on_char '\t' line with
           | [ md5; _bytes; key ] -> Hashtbl.replace table key md5
           | _ -> failwith (Printf.sprintf "%s: malformed line %S" file line));
          loop ()
      in
      loop ());
  table

(* [check golden q body] names the query on any mismatch. *)
let check golden q body =
  let key = Keys.to_string q in
  match Hashtbl.find_opt golden key with
  | None -> Error (Printf.sprintf "no golden digest for [%s]" key)
  | Some want ->
    let got = digest body in
    if got = want then Ok ()
    else
      Error
        (Printf.sprintf "body of [%s] has digest %s, golden.tsv says %s" key
           got want)

(* The CLI ends its body with one newline; served bodies have none. *)
let cli_body out =
  let n = String.length out in
  if n > 0 && out.[n - 1] = '\n' then String.sub out 0 (n - 1) else out

let write file rows =
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        "# md5\tbytes\tquery -- the body `prtb check` prints for each \
         benchmark query\n\
         # regenerate: prtb_bench golden (see bench/e2e/README.md)\n";
      List.iter
        (fun (q, body) ->
           Printf.fprintf oc "%s\t%d\t%s\n" (digest body) (String.length body)
             (Keys.to_string q))
        rows)
