(* Re-export root for the serving subsystem. *)

module Protocol = Protocol
module Admission = Admission
module Instances = Instances
module Jobs = Jobs
module Slo = Slo
module Daemon = Daemon
module Client = Client
