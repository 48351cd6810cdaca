let through_alias = 1
let through_open = 2
let sibling_only = 3
let unused = 4
