val through_alias : int
val through_open : int
val sibling_only : int
val unused : int
