(* Root module of the domain-safety analyzer: pure re-exports. *)

module Front_typed = Front_typed
module Callgraph = Callgraph
module Effects = Effects
module Dom_rules = Dom_rules
module Driver = Driver
