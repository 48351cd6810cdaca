val through_alias : int
val through_open : int
val sibling_only : int
val unused : int

module Nested : sig
  val used_nested : int
  val unused_nested : int
end
