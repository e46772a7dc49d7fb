(** Content fingerprints for the result cache: 64-bit FNV-1a over a
    canonical byte string, rendered as 16 lowercase hex digits.

    FNV-1a is not cryptographic; it keys a local result cache, where the
    adversary is an accidental collision, not an attacker.  The digest is
    stable across platforms and OCaml versions. *)

val digest : string -> string
(** [digest s] is the 64-bit FNV-1a hash of [s] rendered as 16 lowercase
    hex digits. *)

val digest_file : string -> (string, string) result
(** Digest of a file's contents; [Error] (with a [Fingerprint.digest_file:]
    prefix) when the file cannot be read. *)

val is_digest : string -> bool
(** Whether a string is a well-formed digest (16 lowercase hex digits). *)
