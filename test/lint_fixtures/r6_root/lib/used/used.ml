let through_alias = 1
let through_open = 2
let sibling_only = 3
let unused = 4

module Nested = struct
  let used_nested = 5
  let unused_nested = 6
end
