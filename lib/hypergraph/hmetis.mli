(** hMETIS hypergraph file format (the de-facto standard used by hMETIS,
    KaHyPar and PaToH benchmarks). *)

val of_string : string -> Hg.t
(** Parses the text in place: the trimmed non-comment lines are located
    once, the flat pin array is allocated at its exact size from the edge
    lines' token counts, and the result is built by {!Hg.of_csr}.  Raises
    [Failure] with a ["Hmetis.of_lines: "] or ["Hmetis.ints_of_line: "]
    message on malformed input.  Checks run in a fixed order, so the
    message is a function of the input: the header's tokens, negative
    counts, n against {!Hg.max_nodes}, the fmt, too few or too many
    lines, then line by line every
    token before that edge's pins are range-checked, the node-weight
    lines, and last duplicate pins. *)

val read : in_channel -> Hg.t
(** [of_string] of the channel's remaining bytes. *)

val load : string -> Hg.t
(** [of_string] of the file's bytes.  Raises [Sys_error] when the file
    cannot be read. *)

val to_string : Hg.t -> string
val write : out_channel -> Hg.t -> unit
val save : string -> Hg.t -> unit
