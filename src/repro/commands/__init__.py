"""One module per ``repro`` subcommand.

``repro.commands.<name>`` holds two functions: ``add_arguments(parser)``
fills in the subcommand's parser (description, epilog and arguments;
its one-line help is in :data:`repro.cli.COMMANDS`), and ``run(args)``
executes it and returns the exit status.  :func:`repro.cli.main`
imports only the module of the subcommand it runs, and a module
imports what only its subcommand needs inside ``run``.
"""
