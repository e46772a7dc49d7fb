(* Library root. *)
include Part
module Multi_constraint = Multi_constraint
module Layerwise = Layerwise
module Topology = Topology
module Io = Part_io
