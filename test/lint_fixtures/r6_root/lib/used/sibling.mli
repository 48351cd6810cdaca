val total : int
