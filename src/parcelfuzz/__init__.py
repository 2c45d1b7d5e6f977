"""A fuzzing workbench for a simulated binder-style IPC system.

Six toy system services speak an untagged binary parcel format through a
central router.  The package records seed transactions from scripted
clients, mutates them field by field with a fixed catalog, replays the
handle-passing prefix each mutant needs, and triages what crashes.
"""
