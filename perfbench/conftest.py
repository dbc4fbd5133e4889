from perfbench.run import add_source_path

add_source_path()
