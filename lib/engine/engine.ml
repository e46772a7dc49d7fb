(* Re-export root for the batch-execution engine. *)

module Fingerprint = Fingerprint
module Spec = Spec
module Record = Record
module Cache = Cache
module Manifest = Manifest
module Pool = Pool
module Provenance = Provenance
module Runner = Runner
module Batch = Batch
