(** Batch manifests — schema ["hypartition-manifest/1"].

    A manifest names instances, solver configs and seeds; expansion is
    the cartesian product instances × configs × seeds in manifest order
    (instances outermost, seeds innermost), so the same document always
    yields the same job list.  Experiments and fault drills expand once
    per entry with config and seed pinned.  Any instance entry may carry
    a ["timeout_s"] override; otherwise the defaults apply. *)

val schema_version : string
(** ["hypartition-manifest/1"]. *)

val of_string :
  known_experiments:string list -> string -> (Spec.job list, string) result
(** Parse and expand a manifest document.  A field of the wrong type
    (["k": "8"], ["seeds": [1, "2"]]) is an [Error] naming it, and
    [null] reads as absent.  Every expanded job is {!Spec.validate}d;
    experiment ids are checked against [known_experiments]. *)

val load :
  known_experiments:string list -> string -> (Spec.job list, string) result
(** {!of_string} on a file's contents; I/O problems are [Error]s. *)
