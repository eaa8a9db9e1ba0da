(** Arena snapshots: a compiled case-study instance as one [.prtba]
    file, loaded by a process that never ran the model.  A {!load}
    costs about what reading, digesting and checking its bytes costs:
    on a 2-core host, in process, the lr n=3 g=2 [--sym on] quotient
    (8 540 states, 0.6 MB) loads in 16 ms and the lr n=4 [--sym on]
    quotient (40 846 states, 3.3 MB) in 83 ms, where the string-based
    codec took 31 ms and 190 ms (docs/SNAPSHOTS.md, "Performance").

    [prtb compile MODEL -o FILE.prtba] explores and compiles an
    instance, then {!save} serializes the compiled {!Mdp.Arena} -- the
    CSR offset arrays, the interned states, the tick mask and the
    exact rational probability plane (the float plane is recomputed on
    load exactly as {!Mdp.Arena.compile} computes it, and the zero-time
    order rebuilds lazily as usual) -- together with the
    full model configuration and the arena's structural
    {!Mdp.Arena.fingerprint}.  [prtb serve --snapshot-dir DIR] then
    {!preload}s every snapshot at startup, so the first query for a
    snapshotted instance is answered without any exploration or
    compile ([/stats] reports [explorations: 0, compiles: 0]).

    Loading is as strict as [lib/cert]'s parser: an unknown container
    version, a truncated file, a one-byte tamper (the {!Codec} digest
    seals every byte), a malformed section, a configuration [prtb
    compile] does not write, or a fingerprint that does not match the
    arena rebuilt by the {e current} model code are all named [Error]s
    -- a stale or foreign snapshot is refused, never silently served.
    The loader names no family: it rebuilds from the description
    {!Models.case} gives the recorded tuple. *)

(** A snapshotted instance's {!Models.tuple} with its model's name and
    exploration mode.  Loading accepts exactly the configs {!config_of}
    gives for parameters {!Models.invalid} accepts -- what [prtb
    compile] writes -- and refuses any other naming the field. *)
type config = {
  model : string;  (** ["lr"], ["election"], ["coin"] or ["consensus"] *)
  n : int;
  g : int;
  k : int;
  topology : string;  (** ["ring"], ["line"] or ["star"] (lr only) *)
  bound : int;  (** coin barrier *)
  cap : int;  (** consensus round cap *)
  f : int;  (** consensus fault bound *)
  initial : bool array;  (** consensus initial estimates *)
  sym : Analysis.Symmetry.mode;  (** exploration mode when compiled *)
}

(** A loaded instance: the registry's own instance type. *)
type loaded = Models.instance =
  | Lr of Lehmann_rabin.Proof.instance
  | Lr_topo of Lehmann_rabin.Proof.topo_instance
  | Election of Itai_rodeh.Proof.instance
  | Coin of Shared_coin.Proof.instance
  | Consensus of Ben_or.Proof.instance

(** The configuration [prtb compile] records for an instance resolved
    from these parameters under [sym] ({!Models.normalize}). *)
val config_of : sym:Analysis.Symmetry.mode -> Models.params -> config

(** A one-line human description, e.g.
    ["lr n=4 g=1 k=1 sym=on (142 states)"]. *)
val describe : config -> loaded -> string

(** Serialize to [prtba/1] bytes.  Raises [Invalid_argument] when
    [config] names a different model than [loaded] carries. *)
val encode : config -> loaded -> string

(** [save ~path config loaded] writes {!encode} output atomically
    (temp file + rename).  Raises [Sys_error] on I/O failure, after
    removing the temp file. *)
val save : path:string -> config -> loaded -> unit

(** Strict inverse of {!encode}: parses the container, checks the
    config, rebuilds the fragment ({!Mdp.Explore.of_parts}) and the
    arena ({!Mdp.Arena.assemble}) under the current model code, and
    refuses -- with a named error -- anything malformed, tampered,
    version-skewed, foreign, or whose recomputed fingerprint disagrees
    with the stored one. *)
val of_string : string -> (config * loaded, string) result

(** {!of_string} on a file's bytes; I/O errors become [Error]. *)
val load : path:string -> (config * loaded, string) result

(** [preload ?max_states ~path] loads a snapshot and seeds the
    {!Models} registry ({!Models.preload}) under the key printed from
    its recorded tuple, the one {!Models.resolve} prints for its
    parameters with this [max_states] ceiling (pass the daemon's
    [config.max_states]).  [Ok description] on success -- also when
    the key was already cached, which keeps the existing entry --
    [Error] on refusal. *)
val preload :
  ?max_states:int -> path:string -> unit -> (string, string) result
