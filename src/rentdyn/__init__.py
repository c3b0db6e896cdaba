"""System-dynamics model of the U.S. low-income rental housing market.

Stocks of rent and mortgage arrears, occupied/pending-eviction/vacant/
foreclosed rental units, and housing-insecure and homeless households evolve
under coupled feedback: income shocks delay rent, arrears drive eviction
filings, court processing turns filings into displacement, displacement feeds
crowding and homelessness, and crowding and stress feed back into filings.
Policy levers (an eviction moratorium and emergency rental assistance) can be
switched on per scenario.

The package root defines only ``__version__``; import everything else from
its module (``rentdyn.params``, ``rentdyn.scenarios``, ``rentdyn.cli``, ...).
"""

__version__ = "0.1.0"
