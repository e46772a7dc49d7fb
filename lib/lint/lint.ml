(* Library root: hyplint, the AST-level half of `hypartition lint`.

   Rules (stable ids SRC00..SRC12) live in Rules, suppression parsing in
   Suppress, and the tree walk, suppression pass and reporting shared
   with the typed DOM rules in Engine. *)

module Rules = Rules
module Suppress = Suppress
module Engine = Engine

let catalogue = Rules.catalogue
