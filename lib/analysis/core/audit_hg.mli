(** CSR well-formedness audit for {!Hypergraph.t} (Section 3.1).

    Checks the invariants the immutable CSR representation promises:
    in-range strictly-sorted pin lists, an incidence structure that is the
    exact transpose of the pin lists, ρ agreement between both views, and
    positive weights.  Everything is recomputed from the raw CSR arrays
    ({!Hypergraph.csr_pins} and friends), never trusting derived queries.
    Each rule is evaluated once per audit, so [rules_run] is 6 for any
    hypergraph, and a violated rule's message names its first offending
    edge or node. *)

val rules : (string * string) list
(** Rule id → the paper definition / representation invariant it enforces. *)

val audit : Hypergraph.t -> Check.report
